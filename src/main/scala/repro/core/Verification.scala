package repro.core

import repro.util.Hashing

/** Candidate-pair verification shared by CPSJoin, MinHash LSH and the
  * brute-force subroutines (paper §V-A2/4).
  *
  * A candidate pair first passes a size check (a necessary condition for
  * J ≥ λ is λ·|x| ≤ |y| ≤ |x|/λ), then the 1-bit minwise sketch check
  * (estimate ≥ λ̂), and only then the exact overlap verification — the same
  * staged filter as the paper's implementation.
  *
  * Both brute-force kernels run the filter unboxed through one row loop. A
  * bucket is viewed sorted by (set size, bucket index), as AllPairs sorts on
  * length (Bayardo, Ma and Srikant, WWW 2007), so the size-compatible partners
  * of a row record are one contiguous window: the row scans only the window,
  * with the sketch tested as an integer bound on the Hamming distance
  * (`Sketch.maxDistance`, derived once per join by `maxDistance`), and counts
  * the members outside it as size-rejected pre-candidates without touching
  * them. `dedup` collects the emitted pairs in a table over primitive arrays.
  */
object Verification {

  /** The smallest size y with min(s, y) ≥ λ·max(s, y), for 0 < λ < 1: ⌈λs⌉. */
  private[core] def minCompatibleSize(s: Int, lambda: Double): Int = math.ceil(lambda * s).toInt

  /** The largest size y with min(s, y) ≥ λ·max(s, y), for 0 < λ < 1. A set of
    * size y can reach J ≥ λ with one of size s only if min ≤ y ≤ max.
    */
  private[core] def maxCompatibleSize(s: Int, lambda: Double): Int = {
    var y = math.min(math.floor(s / lambda), Int.MaxValue - 1.0).toInt
    while (y < Int.MaxValue - 1 && s >= lambda * (y + 1)) y += 1
    while (s < lambda * y) y -= 1
    y
  }

  /** The sketch bound of a join at threshold λ: `Sketch.maxDistance` of λ̂.
    * Every CPSJoin and MinHash LSH join derives it once, and so rejects a λ
    * outside (0, 1) through `Sketch.lambdaHat`.
    */
  def maxDistance(lambda: Double, p: CPSParams): Int =
    Sketch.maxDistance(Sketch.lambdaHat(lambda, p.sketchBits, p.delta), p.sketchBits)

  /** The members of `bucket` sorted by (set size, bucket index): the scratch
    * view both brute-force kernels scan. The bucket itself keeps its order.
    */
  private[core] def bySize(bucket: scala.collection.IndexedSeq[EmbeddedRec]): Array[EmbeddedRec] = {
    val n = bucket.length
    val keys = new Array[Long](n)
    var i = 0
    while (i < n) { keys(i) = (bucket(i).tokens.length.toLong << 32) | i; i += 1 }
    java.util.Arrays.sort(keys)
    val sorted = new Array[EmbeddedRec](n)
    i = 0
    while (i < n) { sorted(i) = bucket(keys(i).toInt); i += 1 }
    sorted
  }

  /** The first position of the size-sorted `b` whose member has more than `s` tokens. */
  private def firstAbove(b: Array[EmbeddedRec], s: Int): Int = {
    var lo = 0
    var hi = b.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (b(mid).tokens.length <= s) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Brute-force all pairs within a bucket (BRUTEFORCEPAIRS), with the
    * sketch bound `maxD` of `maxDistance` (`Int.MaxValue`: no sketch check):
    * in the size-sorted view, each member against the members after it, of
    * which those up to the end of its size window are scanned.
    */
  def bruteForcePairs(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, maxD: Int,
                      stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit = {
    val b = bySize(bucket)
    var end = 0
    var size = -1
    var maxSize = -1
    var i = 0
    while (i < b.length) {
      // Members after i are no smaller, so the window has no lower end.
      if (b(i).tokens.length != size) { size = b(i).tokens.length; maxSize = maxCompatibleSize(size, lambda) }
      while (end < b.length && b(end).tokens.length <= maxSize) end += 1
      row(b(i), b, i + 1, end, b.length - end, lambda, maxD, stats, emit)
      i += 1
    }
  }

  /** Brute-force one point against a bucket (BRUTEFORCEPOINT), skipping the
    * point itself; `sorted` is the bucket's `bySize` view, built once for all
    * the points brute-forced against it, and `maxD` is as for
    * `bruteForcePairs`. Two binary searches find the point's size window.
    */
  private[core] def bruteForcePoint(x: EmbeddedRec, sorted: Array[EmbeddedRec], lambda: Double, maxD: Int,
                                    stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit = {
    val s = x.tokens.length
    val from = firstAbove(sorted, minCompatibleSize(s, lambda) - 1)
    val until = firstAbove(sorted, maxCompatibleSize(s, lambda))
    row(x, sorted, from, until, from + sorted.length - until, lambda, maxD, stats, emit)
  }

  /** The one loop of both brute-force kernels: `x` against the window
    * `b(from)`, …, `b(until - 1)` of its size-compatible members, skipping
    * members with x's id, with x's sketch hoisted and the counters kept in
    * locals. The `outside` members beyond the window fail the size check, so
    * they count as pre-candidates only. `pre` thus counts every member other
    * than x, as a per-pair loop does: ids are distinct within a payload, and x
    * always lies in its own size window, so no member with x's id is outside.
    */
  private def row(x: EmbeddedRec, b: Array[EmbeddedRec], from: Int, until: Int, outside: Int, lambda: Double,
                  maxD: Int, stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit = {
    val xId = x.id
    val xTokens = x.tokens
    val xSketch = x.sketch
    var pre = outside.toLong
    var cand = 0L
    var res = 0L
    var j = from
    while (j < until) {
      val y = b(j)
      if (y.id != xId) {
        pre += 1
        if (Sketch.hamming(xSketch, y.sketch) <= maxD) {
          cand += 1
          val sim = Jaccard.similarity(xTokens, y.tokens)
          if (sim >= lambda) { res += 1; emit(math.min(xId, y.id), math.max(xId, y.id), sim) }
        }
      }
      j += 1
    }
    stats.pre += pre
    stats.cand += cand
    stats.res += res
  }

  /** Runs `body` with an emit callback and returns the emitted pairs,
    * deduplicated and keyed (smaller id, larger id): the output of every
    * approximate join, whose buckets and repetitions report a pair repeatedly.
    * A pair emitted twice keeps its last similarity.
    */
  def dedup(body: ((Long, Long, Double) => Unit) => Unit): Map[(Long, Long), Double] = {
    val table = new PairTable
    body((a, b, s) => table.update(a, b, s))
    table.toMap
  }

  /** Open-addressing hash table from a pair (smaller id, larger id) to its
    * similarity over primitive arrays, with linear probing; it doubles when
    * more than half full.
    */
  private final class PairTable {
    private var mask = 63
    private var used = new Array[Boolean](mask + 1)
    private var lo = new Array[Long](mask + 1)
    private var hi = new Array[Long](mask + 1)
    private var sim = new Array[Double](mask + 1)
    private var size = 0

    private def slot(a: Long, b: Long): Int = {
      var i = Hashing.combine(a, b).toInt & mask
      while (used(i) && (lo(i) != a || hi(i) != b)) i = (i + 1) & mask
      i
    }

    def update(x: Long, y: Long, s: Double): Unit = {
      val a = math.min(x, y)
      val b = math.max(x, y)
      val i = slot(a, b)
      sim(i) = s
      if (!used(i)) {
        used(i) = true; lo(i) = a; hi(i) = b
        size += 1
        if (2 * size > mask + 1) grow()
      }
    }

    private def grow(): Unit = {
      val (oldUsed, oldLo, oldHi, oldSim) = (used, lo, hi, sim)
      mask = 2 * mask + 1
      used = new Array[Boolean](mask + 1)
      lo = new Array[Long](mask + 1)
      hi = new Array[Long](mask + 1)
      sim = new Array[Double](mask + 1)
      var k = 0
      while (k < oldUsed.length) {
        if (oldUsed(k)) {
          val i = slot(oldLo(k), oldHi(k))
          used(i) = true; lo(i) = oldLo(k); hi(i) = oldHi(k); sim(i) = oldSim(k)
        }
        k += 1
      }
    }

    def toMap: Map[(Long, Long), Double] = {
      val out = Map.newBuilder[(Long, Long), Double]
      var i = 0
      while (i <= mask) {
        if (used(i)) out += (((lo(i), hi(i)), sim(i)))
        i += 1
      }
      out.result()
    }
  }
}
