package repro.joinbench

import repro.core._
import repro.util.Hashing
import scala.collection.mutable

/** One CPSJoin self-join walked from outside the program.
  *
  * It calls `CPSJoinLocal.bruteForceStep`, `splitCoordinates` and `childSeed`
  * in the order of `CPSJoinLocal.runRep` and times and counts each node. The
  * root seed follows `runRep`; the traced run checks that the walk reports
  * exactly the pairs of `CPSJoinLocal.selfJoin`, and its numbers are void if
  * it does not.
  */
final class TreeWalk(lambda: Double, p: CPSParams) {
  val stats = new LocalStats
  val pairs: mutable.HashMap[(Long, Long), Double] = mutable.HashMap.empty
  var emits = 0L

  var nodes = 0L        // BRUTEFORCE steps run (buckets of ≥ 2 records)
  var levels = 0        // deepest level reached, root = 1
  var limitNodes = 0L   // nodes of ≤ limit records, finished by BRUTEFORCEPAIRS
  var capFinishes = 0L  // nodes forced to finish at the depth cap
  var bfPoints = 0L     // records removed by the average-similarity rule (bucket size − survivors)
  var maxBucket = 0L    // largest bucket below the root
  var bfStepNs = 0L
  var splitNs = 0L
  val repSeconds: mutable.ArrayBuffer[Double] = mutable.ArrayBuffer.empty

  private val emit = (a: Long, b: Long, s: Double) => {
    emits += 1
    pairs.update((math.min(a, b), math.max(a, b)), s)
  }

  def join(recs: IndexedSeq[EmbeddedRec]): Unit =
    for (rep <- 0 until p.reps) {
      val rootSeed = Hashing.mix64(p.seed + 0x9e3779b9L * (rep + 1))
      repSeconds += Clock.time(node(recs, rootSeed, 0))._2
    }

  private def node(bucket: IndexedSeq[EmbeddedRec], nodeSeed: Long, depth: Int): Unit = {
    if (bucket.length < 2) return
    nodes += 1
    levels = math.max(levels, depth + 1)
    if (depth > 0) maxBucket = math.max(maxBucket, bucket.length.toLong)
    val atCap = depth >= p.maxDepth
    if (atCap) capFinishes += 1 else if (bucket.length <= p.limit) limitNodes += 1
    val effective = if (atCap) p.copy(limit = Int.MaxValue) else p

    val t0 = System.nanoTime()
    val survivors = CPSJoinLocal.bruteForceStep(bucket, lambda, effective, nodeSeed, stats, emit)
    val t1 = System.nanoTime()
    bfStepNs += t1 - t0
    if (!atCap && bucket.length > p.limit) bfPoints += bucket.length - survivors.length
    if (survivors.length < 2) return

    val children = mutable.ArrayBuffer.empty[(IndexedSeq[EmbeddedRec], Long)]
    for (c <- CPSJoinLocal.splitCoordinates(nodeSeed, p.t, lambda)) {
      val groups = mutable.HashMap.empty[Int, mutable.ArrayBuffer[EmbeddedRec]]
      for (x <- survivors) groups.getOrElseUpdate(x.mh(c), mutable.ArrayBuffer.empty) += x
      for ((v, child) <- groups if child.length >= 2)
        children += ((child.toIndexedSeq, CPSJoinLocal.childSeed(nodeSeed, c, v)))
    }
    splitNs += System.nanoTime() - t1
    for ((child, seed) <- children) node(child, seed, depth + 1)
  }
}
