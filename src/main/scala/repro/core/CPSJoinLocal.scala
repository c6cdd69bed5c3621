package repro.core

import repro.util.Hashing
import java.util.SplittableRandom
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** CPSJoin — faithful single-node implementation of Algorithm 1 (CPSJOIN)
  * and Algorithm 2 (BRUTEFORCE), including the implementation heuristics of
  * §V-A:
  *
  *  - the splitting step samples an expected 1/λ coordinates from [t] (each
  *    coordinate with probability 1/(λt)) and buckets records on their
  *    precomputed MinHash value at those coordinates, so placing a record in
  *    child buckets costs O(1) per child instead of O(|x|); `groups` cuts the
  *    buckets from one sorted packed long per record (radix-sorted in linear
  *    time for large buckets), and MinHash LSH builds its k-tuple buckets
  *    through the same routine;
  *  - the BRUTEFORCE step estimates each record's average similarity to its
  *    bucket in O(ℓ) words using a sampled bucket sketch ŝ (instead of the
  *    O(t) exact token-count rule), and runs a single pass per node: every
  *    record that passes the check is BRUTEFORCEPOINTed against the
  *    survivors, and the removed records are brute-forced among themselves;
  *  - the size filter is a window of the bucket sorted by set size, so a
  *    brute-forced record scans only its size-compatible partners
  *    (`Verification`);
  *  - candidate pairs are filtered through the 1-bit minwise sketch check at
  *    threshold λ̂ (false-negative probability δ) before exact verification,
  *    tested as an integer bound on the Hamming distance that a join derives
  *    once (`Verification.maxDistance`) and passes down as `maxD`;
  *  - duplicates across buckets/repetitions are removed at the end, in
  *    `Verification.dedup`'s primitive pair table.
  *
  * `node` is the only implementation of a tree node, and `runRep` the only
  * tree walk. The Spark engine (`CPSJoinSpark`) runs whole repetitions with
  * `runRep` inside its tasks, one job per call.
  */
object CPSJoinLocal {

  /** The BRUTEFORCE step of one node (Algorithm 2). Runs it on `bucket`;
    * emits verified pairs through `emit`, counts them into `stats` and
    * returns the surviving records (empty if the bucket was fully
    * brute-forced). Above `p.limit`, a record is removed when its sketch
    * estimate against the bucket sketch ŝ exceeds (1 − ε)λ (§V-A). This form
    * derives the sketch bound itself; `node` passes the join's.
    */
  def bruteForceStep(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams,
                     nodeSeed: Long, stats: LocalStats,
                     emit: (Long, Long, Double) => Unit): scala.collection.IndexedSeq[EmbeddedRec] =
    bruteForceStep(bucket, lambda, p, Verification.maxDistance(lambda, p), nodeSeed, stats, emit)

  /** `bruteForceStep` with the join's sketch bound `maxD` (`Verification.maxDistance`). */
  def bruteForceStep(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams, maxD: Int,
                     nodeSeed: Long, stats: LocalStats,
                     emit: (Long, Long, Double) => Unit): scala.collection.IndexedSeq[EmbeddedRec] = {
    if (bucket.length <= p.limit) {
      Verification.bruteForcePairs(bucket, lambda, maxD, stats, emit)
      return Vector.empty
    }
    val rng = new SplittableRandom(Hashing.mix64(nodeSeed ^ 0xb5caL))
    val sHat = Sketch.bucketSketch(bucket.map(_.sketch), p.ell, rng)
    val (removed, survivors) =
      bucket.partition(x => Sketch.estimate(x.sketch, sHat, p.sketchBits) > (1.0 - p.eps) * lambda)
    // Each removed point against the survivors, then the removed points among
    // themselves, so no pair is reported twice within this node (equivalent
    // to Algorithm 2's sequential remove-and-recurse). The survivors are
    // sorted by size once, into a scratch view, if any point was removed;
    // they stay in bucket order.
    if (removed.nonEmpty) {
      val survivorsBySize = Verification.bySize(survivors)
      var ri = 0
      while (ri < removed.length) {
        Verification.bruteForcePoint(removed(ri), survivorsBySize, lambda, maxD, stats, emit)
        ri += 1
      }
      Verification.bruteForcePairs(removed, lambda, maxD, stats, emit)
    }
    survivors
  }

  /** Splitting coordinates for a node: each i ∈ [t] chosen independently with
    * probability 1/(λt) using a coin derived from (nodeSeed, i), so every
    * record in the node sees the same choice (Algorithm 1's shared r).
    */
  def splitCoordinates(nodeSeed: Long, t: Int, lambda: Double): Array[Int] = {
    val pSel = 1.0 / (lambda * t)
    val out = mutable.ArrayBuilder.make[Int]
    var i = 0
    while (i < t) {
      if (Hashing.toUnitDouble(Hashing.combine(nodeSeed, i.toLong)) < pSel) out += i
      i += 1
    }
    out.result()
  }

  /** Child node identity: hash of (parent node, coordinate, minhash value). */
  @inline def childSeed(nodeSeed: Long, coord: Int, mhValue: Int): Long =
    Hashing.combine(nodeSeed, (coord.toLong << 32) ^ (mhValue.toLong & 0xffffffffL))

  /** Seed of the root node of repetition `rep`. */
  def rootSeed(p: CPSParams, rep: Int): Long = Hashing.mix64(p.seed + 0x9e3779b9L * (rep + 1))

  /** The groups of ≥ 2 members of `bucket` with equal minhash at coordinate
    * `c`, members in bucket order, groups in ascending minhash value. It sorts
    * one packed long per member, its minhash above its index, and cuts the
    * sorted runs. Buckets of `RadixCutoff` members or more sort in linear time
    * (`radixSort`), smaller ones by comparison; both give the same order. The
    * Chosen Path split and MinHash LSH's k-tuple buckets both group through
    * here.
    */
  def groups(bucket: scala.collection.IndexedSeq[EmbeddedRec],
             c: Int): scala.collection.Seq[scala.collection.IndexedSeq[EmbeddedRec]] = {
    val n = bucket.length
    val out = mutable.ArrayBuffer.empty[scala.collection.IndexedSeq[EmbeddedRec]]
    var keys = new Array[Long](n)
    var xi = 0
    while (xi < n) { keys(xi) = (bucket(xi).mh(c).toLong << 32) | xi; xi += 1 }
    if (n < RadixCutoff) java.util.Arrays.sort(keys) else keys = radixSort(keys)
    var start = 0
    while (start < n) {
      val v = (keys(start) >> 32).toInt
      var end = start + 1
      while (end < n && (keys(end) >> 32).toInt == v) end += 1
      if (end - start >= 2) {
        val group = new Array[EmbeddedRec](end - start)
        var k = start
        while (k < end) { group(k - start) = bucket(keys(k).toInt); k += 1 }
        out += ArraySeq.unsafeWrapArray(group)
      }
      start = end
    }
    out
  }

  /** Below this many members, `groups` sorts by comparison. */
  private val RadixCutoff = 64

  /** `keys` sorted stably by their high 32 bits as a signed `Int`: four LSD
    * passes over the bytes of the sign-flipped value, skipping a pass in which
    * every key has the same byte. `groups` packs its keys in index order, so
    * the result equals `Arrays.sort` of them. May return a new array.
    */
  private def radixSort(keys: Array[Long]): Array[Long] = {
    val n = keys.length
    val counts = new Array[Int](4 * 256)
    var i = 0
    while (i < n) {
      var pass = 0
      while (pass < 4) { counts(256 * pass + digit(keys(i), pass)) += 1; pass += 1 }
      i += 1
    }
    var src = keys
    var dst = new Array[Long](n)
    var pass = 0
    while (pass < 4) {
      val base = 256 * pass
      if (counts(base + digit(src(0), pass)) < n) {
        var sum = 0
        var d = 0
        while (d < 256) { val m = counts(base + d); counts(base + d) = sum; sum += m; d += 1 }
        i = 0
        while (i < n) {
          val slot = base + digit(src(i), pass)
          dst(counts(slot)) = src(i)
          counts(slot) += 1
          i += 1
        }
        val t = src; src = dst; dst = t
      }
      pass += 1
    }
    src
  }

  /** Byte `pass` (0 = lowest) of a packed key's sign-flipped minhash. */
  @inline private def digit(key: Long, pass: Int): Int =
    (((key >>> 32).toInt ^ Int.MinValue) >>> (8 * pass)) & 0xff

  /** One Chosen Path tree node (the body of Algorithm 1): the BRUTEFORCE
    * step, forced to finish the bucket at depth `p.maxDepth`, then a split of
    * the survivors on the node's sampled coordinates. `maxD` is the join's
    * sketch bound, `Verification.maxDistance(lambda, p)`. Returns the child
    * buckets with their seeds: per coordinate, the `groups` of the survivors.
    */
  def node(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams, maxD: Int,
           nodeSeed: Long, depth: Int, stats: LocalStats,
           emit: (Long, Long, Double) => Unit): scala.collection.Seq[(scala.collection.IndexedSeq[EmbeddedRec], Long)] = {
    val effective = if (depth >= p.maxDepth) p.copy(limit = Int.MaxValue) else p
    val survivors = bruteForceStep(bucket, lambda, effective, maxD, nodeSeed, stats, emit)
    if (survivors.length < 2) return Nil
    for (c <- splitCoordinates(nodeSeed, p.t, lambda).toSeq; child <- groups(survivors, c))
      yield (child, childSeed(nodeSeed, c, child(0).mh(c)))
  }

  /** One repetition of CPSJoin (one Chosen Path tree, walked depth first
    * from the root); `maxD` as for `node`.
    */
  def runRep(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams, maxD: Int, rep: Int,
             stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit = {
    def subtree(bucket: scala.collection.IndexedSeq[EmbeddedRec], nodeSeed: Long, depth: Int): Unit =
      for ((child, seed) <- node(bucket, lambda, p, maxD, nodeSeed, depth, stats, emit))
        subtree(child, seed, depth + 1)
    subtree(recs, rootSeed(p, rep), 0)
  }

  /** Repetitions `reps` (tree roots); returns deduplicated result pairs
    * (id1 < id2) with their exact Jaccard similarity.
    */
  def run(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams, reps: Seq[Int],
          stats: LocalStats): Map[(Long, Long), Double] = {
    val maxD = Verification.maxDistance(lambda, p)
    Verification.dedup(emit => reps.foreach(r => runRep(recs, lambda, p, maxD, r, stats, emit)))
  }

  /** Full self-join: `p.reps` repetitions, output deduplicated. */
  def selfJoin(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double,
               p: CPSParams = CPSParams(), stats: LocalStats = new LocalStats): Map[(Long, Long), Double] =
    run(recs, lambda, p, 0 until p.reps, stats)

  /** Convenience: embed raw records then self-join. */
  def selfJoinRaw(recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
                  p: CPSParams = CPSParams(), stats: LocalStats = new LocalStats): Map[(Long, Long), Double] = {
    val hasher = new MinHasher(p.t, p.ell, p.seed)
    selfJoin(EmbeddedRec.embedAll(recs, hasher).toIndexedSeq, lambda, p, stats)
  }
}
