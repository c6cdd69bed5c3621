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
  * `verify` states the filter on one pair in the paper's terms. The
  * brute-force kernels run the same filter unboxed through one row loop and
  * report the same pairs, similarities and counters: per row record it
  * hoists the size range and sketch, and it tests the sketch as an integer
  * bound on the Hamming distance (`Sketch.maxDistance`, derived once per
  * join by `maxDistance`).
  * `dedup` collects the emitted pairs in a table over primitive arrays.
  */
object Verification {

  /** Size compatibility: can J(x,y) ≥ λ hold given only the set sizes? */
  @inline def sizeCompatible(sx: Int, sy: Int, lambda: Double): Boolean = {
    val lo = math.min(sx, sy).toDouble
    val hi = math.max(sx, sy).toDouble
    lo >= lambda * hi
  }

  /** The smallest size y with `sizeCompatible(s, y, λ)`, for 0 < λ < 1. */
  private[core] def minCompatibleSize(s: Int, lambda: Double): Int = math.ceil(lambda * s).toInt

  /** The largest size y with `sizeCompatible(s, y, λ)`, for 0 < λ < 1. So
    * `sizeCompatible(s, y, λ)` ⇔ min ≤ y ≤ max, with the same rounding.
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

  /** Verify one candidate pair end-to-end. Returns the exact similarity if
    * the pair is a result (J ≥ λ), NaN otherwise. Updates `stats`: the pair
    * is counted as a pre-candidate; pairs passing size+sketch checks are
    * counted as candidates; verified pairs as results. `sketchBits = 0`
    * switches the sketch check off.
    */
  def verify(x: EmbeddedRec, y: EmbeddedRec, lambda: Double, lambdaHat: Double,
             sketchBits: Int, stats: LocalStats): Double = {
    stats.pre += 1
    if (!sizeCompatible(x.tokens.length, y.tokens.length, lambda)) return Double.NaN
    if (sketchBits > 0 && Sketch.estimate(x.sketch, y.sketch, sketchBits) < lambdaHat) return Double.NaN
    stats.cand += 1
    val sim = Jaccard.similarity(x.tokens, y.tokens)
    if (sim >= lambda) { stats.res += 1; sim } else Double.NaN
  }

  /** Brute-force all pairs within a bucket (BRUTEFORCEPAIRS), with the
    * sketch bound `maxD` of `maxDistance` (`Int.MaxValue`: no sketch check):
    * each member against the members after it.
    */
  def bruteForcePairs(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, maxD: Int,
                      stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit = {
    val b = bucket.toArray
    var i = 0
    while (i < b.length) { row(b(i), b, i + 1, lambda, maxD, stats, emit); i += 1 }
  }

  /** Brute-force one point against a bucket (BRUTEFORCEPOINT), skipping the
    * point itself; `maxD` as for `bruteForcePairs`.
    */
  def bruteForcePoint(x: EmbeddedRec, bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double,
                      maxD: Int, stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit =
    row(x, bucket.toArray, 0, lambda, maxD, stats, emit)

  /** The one loop of both brute-force kernels: `x` against `b(from)`, …,
    * `b(b.length - 1)`, skipping members with x's id, with x's size range and
    * sketch hoisted and the counters kept in locals. With `from = 0` it is
    * BRUTEFORCEPOINT against a bucket the caller copied into an array once.
    */
  private[core] def row(x: EmbeddedRec, b: Array[EmbeddedRec], from: Int, lambda: Double, maxD: Int,
                        stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit = {
    val xId = x.id
    val xTokens = x.tokens
    val xSketch = x.sketch
    val lo = minCompatibleSize(xTokens.length, lambda)
    val hi = maxCompatibleSize(xTokens.length, lambda)
    var pre = 0L
    var cand = 0L
    var res = 0L
    var j = from
    while (j < b.length) {
      val y = b(j)
      if (y.id != xId) {
        pre += 1
        val sy = y.tokens.length
        if (sy >= lo && sy <= hi && Sketch.hamming(xSketch, y.sketch) <= maxD) {
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
