package repro.core

import repro.util.Hashing
import java.util.SplittableRandom
import scala.collection.mutable

/** CPSJoin — faithful single-node implementation of Algorithm 1 (CPSJOIN)
  * and Algorithm 2 (BRUTEFORCE), including the implementation heuristics of
  * §V-A:
  *
  *  - the splitting step samples an expected 1/λ coordinates from [t] (each
  *    coordinate with probability 1/(λt)) and buckets records on their
  *    precomputed MinHash value at those coordinates, so placing a record in
  *    child buckets costs O(1) per child instead of O(|x|);
  *  - the BRUTEFORCE step estimates each record's average similarity to its
  *    bucket in O(ℓ) words using a sampled bucket sketch ŝ (instead of the
  *    O(t) exact token-count rule), and runs a single pass per node, calling
  *    BRUTEFORCEPOINT on every record that passes the check;
  *  - candidate pairs are filtered through the 1-bit minwise sketch check at
  *    threshold λ̂ (false-negative probability δ) before exact verification;
  *  - duplicates across buckets/repetitions are removed at the end.
  *
  * `node` is the only implementation of a tree node. The Spark engine
  * (`CPSJoinSpark`) runs each repetition's root `node` on the driver and
  * finishes every first-level subtree with `subtree` inside one Spark job.
  */
object CPSJoinLocal {

  /** The BRUTEFORCE step of one node (Algorithm 2). Runs it on `bucket`;
    * emits verified pairs through `emit`, counts them into `stats` and
    * returns the surviving records (empty if the bucket was fully
    * brute-forced). Above `p.limit`, a record is removed when its sketch
    * estimate against the bucket sketch ŝ exceeds (1 − ε)λ (§V-A).
    */
  def bruteForceStep(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams,
                     nodeSeed: Long, stats: LocalStats,
                     emit: (Long, Long, Double) => Unit): scala.collection.IndexedSeq[EmbeddedRec] = {
    val lh = Sketch.lambdaHat(lambda, p.sketchBits, p.delta)
    if (bucket.length <= p.limit) {
      Verification.bruteForcePairs(bucket, lambda, lh, p.sketchBits, stats, emit)
      return Vector.empty
    }
    val removeFlag = new Array[Boolean](bucket.length)
    val rng = new SplittableRandom(Hashing.mix64(nodeSeed ^ 0xb5caL))
    val sHat = Sketch.bucketSketch(bucket.map(_.sketch), p.ell, rng)
    var xi = 0
    while (xi < bucket.length) {
      val est = Sketch.estimate(bucket(xi).sketch, sHat, p.sketchBits)
      removeFlag(xi) = est > (1.0 - p.eps) * lambda
      xi += 1
    }
    val survivors = Vector.newBuilder[EmbeddedRec]
    // Compare each removed point against survivors and *later* removed points
    // so no pair is reported twice within this node (equivalent to
    // Algorithm 2's sequential remove-and-recurse).
    xi = 0
    while (xi < bucket.length) {
      if (!removeFlag(xi)) survivors += bucket(xi)
      xi += 1
    }
    val surv = survivors.result()
    xi = 0
    while (xi < bucket.length) {
      if (removeFlag(xi)) {
        val x = bucket(xi)
        Verification.bruteForcePoint(x, surv, lambda, lh, p.sketchBits, stats, emit)
        var yj = xi + 1
        while (yj < bucket.length) {
          if (removeFlag(yj)) {
            val s = Verification.verify(x, bucket(yj), lambda, lh, p.sketchBits, stats)
            if (!s.isNaN) emit(math.min(x.id, bucket(yj).id), math.max(x.id, bucket(yj).id), s)
          }
          yj += 1
        }
      }
      xi += 1
    }
    surv
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

  /** One Chosen Path tree node (the body of Algorithm 1): the BRUTEFORCE
    * step, forced to finish the bucket at depth `p.maxDepth`, then a split of
    * the survivors on the node's sampled coordinates. Returns the child
    * buckets of ≥ 2 records with their seeds, members in bucket order.
    */
  def node(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams,
           nodeSeed: Long, depth: Int, stats: LocalStats,
           emit: (Long, Long, Double) => Unit): scala.collection.Seq[(scala.collection.IndexedSeq[EmbeddedRec], Long)] = {
    val effective = if (depth >= p.maxDepth) p.copy(limit = Int.MaxValue) else p
    val survivors = bruteForceStep(bucket, lambda, effective, nodeSeed, stats, emit)
    if (survivors.length < 2) return Nil
    val out = mutable.ArrayBuffer.empty[(scala.collection.IndexedSeq[EmbeddedRec], Long)]
    for (c <- splitCoordinates(nodeSeed, p.t, lambda)) {
      val children = mutable.HashMap.empty[Int, mutable.ArrayBuffer[EmbeddedRec]]
      var xi = 0
      while (xi < survivors.length) {
        val x = survivors(xi)
        children.getOrElseUpdate(x.mh(c), mutable.ArrayBuffer.empty) += x
        xi += 1
      }
      for ((v, child) <- children if child.length >= 2)
        out += ((child, childSeed(nodeSeed, c, v)))
    }
    out
  }

  /** The whole subtree below a node at `depth`, depth first. */
  def subtree(bucket: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams,
              nodeSeed: Long, depth: Int, stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit =
    for ((child, seed) <- node(bucket, lambda, p, nodeSeed, depth, stats, emit))
      subtree(child, lambda, p, seed, depth + 1, stats, emit)

  /** One repetition of CPSJoin (one Chosen Path tree). */
  def runRep(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams, rep: Int,
             stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit =
    subtree(recs, lambda, p, rootSeed(p, rep), 0, stats, emit)

  /** Repetitions `reps` (tree roots); returns deduplicated result pairs
    * (id1 < id2) with their exact Jaccard similarity.
    */
  def run(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, p: CPSParams, reps: Seq[Int],
          stats: LocalStats): Map[(Long, Long), Double] =
    Verification.dedup(emit => reps.foreach(r => runRep(recs, lambda, p, r, stats, emit)))

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
