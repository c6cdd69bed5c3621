package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Distributed CPSJoin: a distribution shell around `CPSJoinLocal.runRep`.
  *
  * The repetitions are independent Chosen Path trees (paper §IV). One job
  * (`runTasks`) over the repetition indices runs each whole tree with
  * `CPSJoinLocal.runRep` against the broadcast payload, and the driver
  * deduplicates the collected pairs. A repetition is one task's work, so a
  * call uses at most `min(reps.length, defaultParallelism)` task slots.
  *
  * The trees are `CPSJoinLocal`'s own, so for equal parameters both engines
  * report the same pairs and the same Table IV counters (a property the
  * tests assert).
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
    // Locals, so the task closure does not capture `this` (and its `stats`).
    val lam = lambda
    val params = p
    val maxD = Verification.maxDistance(lam, params)
    CPSJoinSpark.runTasks(spark, payload, reps, stats) { (recs, r, taskStats, emit) =>
      CPSJoinLocal.runRep(recs, lam, params, maxD, r, taskStats, emit)
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

  /** The Spark half of every engine: runs `work(payload.value, item,
    * taskStats, emit)` for each of `items` in one Spark job over
    * `min(items, defaultParallelism)` contiguous slices of them, and returns
    * the distinct emitted pairs, keyed (smaller id, larger id). Each task
    * appends its pairs to three primitive columns (the ids as emitted, the
    * similarity) and returns them with its three `LocalStats` counts: 24
    * bytes a pair and no object per pair to serialize and read back. The
    * driver deduplicates the columns (`Verification.dedup`) and adds the
    * counts to `stats`, so a re-run task is counted once, like its pairs.
    * One call is one job and no shuffle.
    */
  def runTasks[P](spark: SparkSession, payload: Broadcast[P], items: Seq[Int], stats: LocalStats)(
      work: (P, Int, LocalStats, (Long, Long, Double) => Unit) => Unit): Map[(Long, Long), Double] = {
    val sc = spark.sparkContext
    val slices = math.max(1, math.min(items.length, sc.defaultParallelism))
    val parts = sc.parallelize(items, slices).mapPartitions { it =>
      val taskStats = new LocalStats
      val as = new mutable.ArrayBuilder.ofLong
      val bs = new mutable.ArrayBuilder.ofLong
      val sims = new mutable.ArrayBuilder.ofDouble
      val emit = (a: Long, b: Long, s: Double) => { as.addOne(a); bs.addOne(b); sims.addOne(s); () }
      for (item <- it) work(payload.value, item, taskStats, emit)
      Iterator.single((as.result(), bs.result(), sims.result(), Array(taskStats.pre, taskStats.cand, taskStats.res)))
    }.collect()
    Verification.dedup { emit =>
      for ((as, bs, sims, counts) <- parts) {
        stats.pre += counts(0); stats.cand += counts(1); stats.res += counts(2)
        var i = 0
        while (i < as.length) { emit(as(i), bs(i), sims(i)); i += 1 }
      }
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
