package repro.core

import repro.util.Hashing
import repro.util.Hashing.Tabulation64
import java.util.SplittableRandom
import java.util.concurrent.atomic.{AtomicInteger, AtomicReference}

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
  *
  * `embed` reads only the tables and salts fixed at construction and writes
  * only arrays it allocates, so a hasher is thread-safe: `EmbeddedRec.embedAll`
  * shares one across its worker threads.
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

  /** Records per block; a worker claims one block at a time. */
  private[core] val Block = 256

  /** Name prefix of the worker threads `embedAll` starts. */
  private[core] val WorkerPrefix = "embedAll-worker-"

  /** Embeds every record, `out(i)` from `recs(i)`, on all cores.
    *
    * The input contract is checked serially on the caller before any work
    * starts: distinct ids first, then non-empty sets, so the error is the
    * same as a serial embedding's. Then the caller and up to
    * `availableProcessors − 1` plain worker threads claim blocks of `Block`
    * records from a shared counter and write their slots in place, so the
    * output is bit-identical to `recs.map(r => hasher.embed(r.tokens))`
    * whatever order the blocks finish in. `MinHasher.embed` shares no
    * mutable state, so one hasher serves every thread. An input of fewer
    * than two blocks runs inline. The workers are joined before this
    * returns or throws; a worker's exception is rethrown as it is.
    */
  def embedAll(recs: scala.collection.IndexedSeq[SetRec], hasher: MinHasher): Array[EmbeddedRec] = {
    SetRec.requireDistinctIds(recs)
    for (r <- recs) require(r.tokens.nonEmpty, "cannot embed an empty set")
    val out = new Array[EmbeddedRec](recs.length)
    val blocks = (out.length + Block - 1) / Block
    val next = new AtomicInteger(0)
    val failure = new AtomicReference[Throwable]()
    def work(): Unit =
      try {
        var b = next.getAndIncrement()
        while (b < blocks) {
          var i = b * Block
          val end = math.min(out.length, i + Block)
          while (i < end) {
            val r = recs(i)
            val (mh, sk) = hasher.embed(r.tokens)
            out(i) = EmbeddedRec(r.id, r.tokens, mh, sk)
            i += 1
          }
          b = next.getAndIncrement()
        }
      } catch {
        case e: Throwable =>
          next.set(blocks) // the other threads stop after their current block
          failure.compareAndSet(null, e)
      }
    val workers = Array.tabulate(math.min(Runtime.getRuntime.availableProcessors, blocks) - 1)(k =>
      new Thread(() => work(), WorkerPrefix + k))
    workers.foreach(_.start())
    work()
    // Joined even if the caller is interrupted meanwhile; its interrupt status is kept.
    var interrupted = false
    for (w <- workers) while (w.isAlive) try w.join() catch { case _: InterruptedException => interrupted = true }
    if (interrupted) Thread.currentThread.interrupt()
    if (failure.get != null) throw failure.get
    out
  }
}
