package repro.core

import repro.util.Hashing
import java.util.SplittableRandom

/** 1-bit minwise sketch arithmetic (paper §V-A2).
  *
  * For two sets x, y with Jaccard similarity J, corresponding sketch bits
  * agree with probability (1+J)/2 (they agree surely when the underlying
  * minhashes collide, and with probability 1/2 otherwise). The estimator is
  * therefore Ĵ = 2·(agreeing fraction) − 1, computed with popcount.
  */
object Sketch {

  /** Hamming distance between two equal-length sketches (popcount of XOR). */
  def hamming(a: Array[Long], b: Array[Long]): Int = {
    var w = 0; var d = 0
    while (w < a.length) { d += java.lang.Long.bitCount(a(w) ^ b(w)); w += 1 }
    d
  }

  /** Estimated Jaccard similarity from two sketches of `bits` bits. */
  def estimate(a: Array[Long], b: Array[Long], bits: Int): Double = estimate(hamming(a, b), bits)

  /** Estimated Jaccard similarity of two sketches of `bits` bits that differ
    * in `distance` bits.
    */
  def estimate(distance: Int, bits: Int): Double = math.max(0.0, 2.0 * (bits - distance) / bits - 1.0)

  /** The sketch check in integer form: the largest Hamming distance d whose
    * `estimate(d, bits)` is still ≥ `lambdaHat`, so that for every d ≥ 0,
    * `d <= maxDistance` ⇔ `estimate(d, bits) >= lambdaHat` (the estimate does
    * not grow with d). −1 if no distance passes; `Int.MaxValue` if every one
    * does, which includes `bits = 0`, the switched-off check. O(bits): a join
    * derives it once, next to λ̂.
    */
  def maxDistance(lambdaHat: Double, bits: Int): Int =
    if (bits == 0 || lambdaHat <= 0.0) Int.MaxValue
    else {
      var d = -1
      while (d < bits && estimate(d + 1, bits) >= lambdaHat) d += 1
      d
    }

  /** Rejects a similarity threshold outside (0, 1): the one λ check of every
    * join, exact (`AllPairsLocal.prepare`) and approximate (`lambdaHat`).
    */
  def requireThreshold(lambda: Double): Unit =
    require(lambda > 0 && lambda < 1, s"λ must lie in (0, 1), got $lambda")

  /** Sketch threshold λ̂ < λ such that a true-positive pair (J ≥ λ) fails the
    * sketch check with probability < δ (paper §V-A2, normal approximation to
    * the Binomial over `bits` independent bit agreements).
    *
    * Every CPSJoin and MinHash LSH entry point reaches this function, so it
    * is where those joins reject a threshold outside (0, 1)
    * (`requireThreshold`).
    */
  def lambdaHat(lambda: Double, bits: Int, delta: Double): Double = {
    requireThreshold(lambda)
    val p = (1.0 + lambda) / 2.0
    val sigmaJ = 2.0 * math.sqrt(p * (1.0 - p) / bits) // std-dev of Ĵ
    val z = Hashing.inverseNormalCdf(1.0 - delta)
    math.max(0.0, lambda - z * sigmaJ)
  }

  /** Sketch ŝ of a whole bucket S (paper §V-A4): bit i of ŝ is bit i of a
    * uniformly sampled member of S. The agreement fraction between x̂ and ŝ
    * then estimates the average of (1+J(x,y))/2 over y ~ S, so
    * 2·agree/bits − 1 estimates the average Jaccard of x to S.
    */
  def bucketSketch(sketches: scala.collection.IndexedSeq[Array[Long]], words: Int, rng: SplittableRandom): Array[Long] = {
    require(sketches.nonEmpty)
    val out = new Array[Long](words)
    val bits = 64 * words
    var b = 0
    while (b < bits) {
      val s = sketches(rng.nextInt(sketches.length))
      out(b >>> 6) |= ((s(b >>> 6) >>> (b & 63)) & 1L) << (b & 63)
      b += 1
    }
    out
  }
}
