package repro.core

import scala.collection.mutable

/** Candidate-pair verification shared by CPSJoin, MinHash LSH and the
  * brute-force subroutines (paper §V-A2/4).
  *
  * A candidate pair first passes a size check (a necessary condition for
  * J ≥ λ is λ·|x| ≤ |y| ≤ |x|/λ), then the 1-bit minwise sketch check
  * (estimate ≥ λ̂), and only then the exact overlap verification — the same
  * staged filter as the paper's implementation.
  */
object Verification {

  /** Size compatibility: can J(x,y) ≥ λ hold given only the set sizes? */
  @inline def sizeCompatible(sx: Int, sy: Int, lambda: Double): Boolean = {
    val lo = math.min(sx, sy).toDouble
    val hi = math.max(sx, sy).toDouble
    lo >= lambda * hi
  }

  /** Verify one candidate pair end-to-end. Returns the exact similarity if
    * the pair is a result (J ≥ λ), NaN otherwise. Updates `stats`: the pair
    * is counted as a pre-candidate; pairs passing size+sketch checks are
    * counted as candidates; verified pairs as results.
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

  /** Brute-force all pairs within a bucket (BRUTEFORCEPAIRS). */
  def bruteForcePairs(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, lambdaHat: Double,
                      sketchBits: Int, stats: LocalStats,
                      emit: (Long, Long, Double) => Unit): Unit = {
    var i = 0
    while (i < bucket.length) {
      var j = i + 1
      while (j < bucket.length) {
        val s = verify(bucket(i), bucket(j), lambda, lambdaHat, sketchBits, stats)
        if (!s.isNaN) emit(bucket(i).id, bucket(j).id, s)
        j += 1
      }
      i += 1
    }
  }

  /** Brute-force one point against a bucket (BRUTEFORCEPOINT). */
  def bruteForcePoint(x: EmbeddedRec, bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double,
                      lambdaHat: Double, sketchBits: Int, stats: LocalStats,
                      emit: (Long, Long, Double) => Unit): Unit = {
    var j = 0
    while (j < bucket.length) {
      val y = bucket(j)
      if (y.id != x.id) {
        val s = verify(x, y, lambda, lambdaHat, sketchBits, stats)
        if (!s.isNaN) emit(math.min(x.id, y.id), math.max(x.id, y.id), s)
      }
      j += 1
    }
  }

  /** Runs `body` with an emit callback and returns the emitted pairs,
    * deduplicated and keyed (smaller id, larger id): the output of every
    * approximate join, whose buckets and repetitions report a pair repeatedly.
    */
  def dedup(body: ((Long, Long, Double) => Unit) => Unit): Map[(Long, Long), Double] = {
    val out = mutable.HashMap.empty[(Long, Long), Double]
    body((a, b, s) => out.update((math.min(a, b), math.max(a, b)), s))
    out.toMap
  }
}
