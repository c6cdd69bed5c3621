package repro.util

import java.util.SplittableRandom

/** Seeded hashing primitives used throughout the reproduction.
  *
  * The paper (§V-A1) uses Zobrist (simple tabulation) hashing from 32 bits to
  * 64 bits with 8-bit characters, which is both theoretically strong for
  * minwise hashing [Pătraşcu–Thorup] and fast in practice. We implement the
  * same 4×256-entry tabulation scheme. Where the paper evaluates hundreds of
  * independent hash functions per token (one per minhash/sketch bit) we
  * instead evaluate one tabulation hash per token and derive per-function
  * values by XORing it with a per-function random salt and applying a strong
  * 64-bit finalizer (see DESIGN.md, substitutions). All randomness is derived from
  * `java.util.SplittableRandom`, so every run is deterministic in its seed.
  */
object Hashing {

  /** 4×256 tabulation tables for hashing a 32-bit key to 64 bits. */
  final class Tabulation64(seed: Long) extends Serializable {
    private val tables: Array[Array[Long]] = {
      val rng = new SplittableRandom(seed)
      Array.fill(4)(Array.fill(256)(rng.nextLong()))
    }

    /** Zobrist hash of a 32-bit key: XOR of one table entry per byte. */
    def hash(key: Int): Long = {
      val t0 = tables(0)(key & 0xff)
      val t1 = tables(1)((key >>> 8) & 0xff)
      val t2 = tables(2)((key >>> 16) & 0xff)
      val t3 = tables(3)(key >>> 24)
      t0 ^ t1 ^ t2 ^ t3
    }
  }

  /** SplitMix64 finalizer: a high-quality 64-bit mixer (bijective). */
  @inline def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Mix two words into one (used for deriving per-function / per-node hashes). */
  @inline def combine(a: Long, b: Long): Long = mix64(a ^ (b * 0xff51afd7ed558ccdL))

  /** Deterministic uniform double in [0, 1) from a 64-bit hash. */
  @inline def toUnitDouble(h: Long): Double = (h >>> 11).toDouble * 1.1102230246251565e-16 // 2^-53

  /** Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9
    * relative error) — used to set the sketch threshold λ̂ from the false
    * negative probability δ (paper §V-A2).
    */
  def inverseNormalCdf(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"p must be in (0,1), got $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      val q = math.sqrt(-2 * math.log(1 - p))
      -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    }
  }
}
