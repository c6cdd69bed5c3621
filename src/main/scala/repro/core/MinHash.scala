package repro.core

import repro.util.Hashing
import repro.util.Hashing.Tabulation64
import java.util.SplittableRandom

/** MinHash embedding and 1-bit minwise sketches (paper §V-A1).
  *
  * Each record x is preprocessed into:
  *  - a vector of `t` MinHash values (the minimizing token per hash
  *    function), used by the Chosen Path splitting step and by MinHash LSH;
  *  - a 1-bit minwise sketch of `sketchWords` 64-bit words, where bit i is a
  *    random 1-bit hash of the i-th (independent) MinHash of x, used for fast
  *    similarity estimation via popcount (Li–König).
  *
  * Hashing: one Zobrist/tabulation hash z per token, computed once per
  * record; each of the t + 64·sketchWords functions mixes z with its own salt
  * through a SplitMix64 finalizer (t + 64·sketchWords mixes per token). Sketch
  * bit b is one more mix of the stored z of function t + b's argmin token with
  * a bit salt (64·sketchWords bit mixes per record); no token is hashed twice.
  * See `repro.util.Hashing` and DESIGN.md for why this substitution for
  * per-function tabulation is safe.
  */
final class MinHasher(val t: Int, val sketchWords: Int, seed: Long) extends Serializable {
  require(t > 0 && sketchWords >= 0)

  val sketchBits: Int = 64 * sketchWords
  private val nFns: Int = t + sketchBits

  private val tab = new Tabulation64(seed)
  private val fnSalts: Array[Long] = {
    val rng = new SplittableRandom(Hashing.mix64(seed ^ 0x5ca1ab1eL))
    Array.fill(nFns)(rng.nextLong())
  }
  private val bitSalts: Array[Long] = {
    val rng = new SplittableRandom(Hashing.mix64(seed ^ 0x0ddba11L))
    Array.fill(math.max(1, sketchBits))(rng.nextLong())
  }

  /** Embed a record: (minhash vector of length t, sketch of sketchWords words).
    * Cost: one tabulation hash per token, (t + sketchBits) mixes per token, and
    * sketchBits bit mixes per record; the argmin token is not hashed again.
    */
  def embed(tokens: Array[Int]): (Array[Int], Array[Long]) = {
    require(tokens.nonEmpty, "cannot embed an empty set")
    val zs = new Array[Long](tokens.length)
    var ti = 0
    while (ti < zs.length) { zs(ti) = tab.hash(tokens(ti)); ti += 1 }
    val mh = new Array[Int](t)
    var f = 0
    while (f < t) { mh(f) = tokens(argmin(zs, fnSalts(f))); f += 1 }
    val sketch = new Array[Long](sketchWords)
    var b = 0
    while (b < sketchBits) {
      // 1-bit hash g_b of the b-th minhash token (paper: bit i = g_i(h_i(x))).
      val bit = Hashing.mix64(zs(argmin(zs, fnSalts(t + b))) ^ bitSalts(b)) & 1L
      sketch(b >>> 6) |= bit << (b & 63)
      b += 1
    }
    (mh, sketch)
  }

  /** Index of the token whose hash `zs(i)`, mixed with `salt`, is smallest;
    * the earliest such token on ties.
    */
  private def argmin(zs: Array[Long], salt: Long): Int = {
    var best = Hashing.mix64(zs(0) ^ salt)
    var arg = 0
    var i = 1
    while (i < zs.length) {
      val v = Hashing.mix64(zs(i) ^ salt)
      if (v < best) { best = v; arg = i }
      i += 1
    }
    arg
  }
}

/** Fully preprocessed record: original tokens + minhash vector + sketch. */
final case class EmbeddedRec(id: Long, tokens: Array[Int], mh: Array[Int], sketch: Array[Long])

object EmbeddedRec {
  def embedAll(recs: scala.collection.IndexedSeq[SetRec], hasher: MinHasher): Array[EmbeddedRec] = {
    SetRec.requireDistinctIds(recs)
    recs.iterator.map { r =>
      val (mh, sk) = hasher.embed(r.tokens)
      EmbeddedRec(r.id, r.tokens, mh, sk)
    }.toArray
  }
}
