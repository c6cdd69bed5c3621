package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.reflect.ClassTag

/** Distributed CPSJoin: a distribution shell around `CPSJoinLocal.node`.
  *
  * Below the root, the subtrees of the Chosen Path tree are independent
  * (paper §IV). For each repetition the driver runs the root `node` on the
  * broadcast payload; one job (`finishBuckets`) then finishes every
  * first-level subtree with `CPSJoinLocal.subtree`, and the driver
  * deduplicates the collected pairs. A child bucket ships as the payload
  * indices of its members, in the order the split produced them.
  *
  * The tree and its node seeds are those of `CPSJoinLocal`, so for equal
  * parameters both engines report the same pairs and the same Table IV
  * counters (a property the tests assert).
  */
final class CPSJoinSpark(
    spark: SparkSession,
    payload: Broadcast[IndexedSeq[EmbeddedRec]],
    lambda: Double,
    p: CPSParams,
    stats: LocalStats = new LocalStats,
) {

  /** Run repetitions `reps` (tree roots) and return deduplicated result
    * pairs (id1 < id2) with exact Jaccard similarity.
    */
  def run(reps: Seq[Int]): Map[(Long, Long), Double] = {
    val lam = lambda
    val params = p
    val maxD = Verification.maxDistance(lam, params)
    Verification.dedup { emit =>
      val children = reps.flatMap(r =>
        CPSJoinLocal.node(payload.value, lam, params, maxD, CPSJoinLocal.rootSeed(params, r), 0, stats, emit))
      CPSJoinSpark.finishBuckets(spark, payload, children, stats, emit) { (bucket, seed, taskStats, emitTask) =>
        CPSJoinLocal.subtree(bucket, lam, params, maxD, seed, 1, taskStats, emitTask)
      }
    }
  }
}

object CPSJoinSpark {

  /** Embed all records on the driver and broadcast them in input order.
    * Preprocessing is shared by CPSJoin and MinHash LSH (paper: preprocessing
    * is done once per dataset and excluded from join times).
    */
  def broadcastPayload(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec],
                       p: CPSParams): Broadcast[IndexedSeq[EmbeddedRec]] = {
    val hasher = new MinHasher(p.t, p.ell, p.seed)
    spark.sparkContext.broadcast(EmbeddedRec.embedAll(recs, hasher).toIndexedSeq)
  }

  /** Finishes `buckets` of payload records in one `runTasks` job and passes
    * the pairs their tasks emit to `emit` on the driver. A bucket ships as
    * the payload indices of its members, found by identity, with its `S` (a
    * node seed, say), and runs `finish` against the broadcast payload.
    * Shared by CPSJoin and MinHash LSH.
    */
  def finishBuckets[S](spark: SparkSession, payload: Broadcast[IndexedSeq[EmbeddedRec]],
                       buckets: Seq[(scala.collection.IndexedSeq[EmbeddedRec], S)],
                       stats: LocalStats, emit: (Long, Long, Double) => Unit)(
      finish: (scala.collection.IndexedSeq[EmbeddedRec], S, LocalStats, (Long, Long, Double) => Unit) => Unit): Unit = {
    val recs = payload.value
    val index = new java.util.IdentityHashMap[EmbeddedRec, Int]
    for (i <- recs.indices) index.put(recs(i), i)
    val shipped = buckets.map { case (members, s) => (members.map(index.get).toArray, s) }
    runTasks(spark, shipped, stats, emit) { (it, taskStats, emitTask) =>
      val all = payload.value
      for ((members, s) <- it) finish(members.map(all), s, taskStats, emitTask)
    }
  }

  /** Runs `work` in one Spark job over `min(items, defaultParallelism)`
    * slices of `items`, one call per slice, and passes the pairs its tasks
    * emit to `emit` on the driver. Each task counts into its own
    * `LocalStats` and returns its three counts with its pairs, and the driver
    * adds them to `stats`; so a re-run task is counted once, like its pairs.
    * One call is one job and no shuffle: the task shell of all three Spark
    * engines.
    */
  def runTasks[T: ClassTag](spark: SparkSession, items: Seq[T], stats: LocalStats,
                            emit: (Long, Long, Double) => Unit)(
      work: (Iterator[T], LocalStats, (Long, Long, Double) => Unit) => Unit): Unit = {
    val sc = spark.sparkContext
    val slices = math.max(1, math.min(items.length, sc.defaultParallelism))
    val parts = sc.parallelize(items, slices).mapPartitions { it =>
      val taskStats = new LocalStats
      val out = mutable.ArrayBuffer.empty[(Long, Long, Double)]
      val emitTask = (a: Long, b: Long, s: Double) => { out += ((a, b, s)); () }
      work(it, taskStats, emitTask)
      Iterator.single((out, taskStats.pre, taskStats.cand, taskStats.res))
    }.collect()
    for ((pairs, pre, cand, res) <- parts) {
      stats.pre += pre; stats.cand += cand; stats.res += res
      for ((a, b, s) <- pairs) emit(a, b, s)
    }
  }

  /** Convenience one-shot self-join with `p.reps` repetitions. */
  def selfJoin(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
               p: CPSParams = CPSParams(), stats: LocalStats = new LocalStats): Map[(Long, Long), Double] = {
    val bc = broadcastPayload(spark, recs, p)
    try new CPSJoinSpark(spark, bc, lambda, p, stats).run(0 until p.reps)
    finally bc.destroy()
  }
}
