package repro.baselines

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.core._

/** Distributed MinHash LSH self-join (paper Algorithm 3): a distribution
  * shell around `MinHashLSHLocal.runRep`.
  *
  * The repetitions are independent. One job (`CPSJoinSpark.runTasks`, the
  * task shell of every Spark engine) over the repetition indices buckets
  * the broadcast payload and brute-forces every bucket with
  * `MinHashLSHLocal.runRep`, one whole repetition per item, and the driver
  * deduplicates the collected pairs. So for equal parameters both engines
  * report the same pairs and Table IV counters. The key length k is chosen
  * on the driver with the cost-based rule of §V-B (`MinHashLSHLocal.chooseK`).
  */
final class MinHashLSHSpark(
    spark: SparkSession,
    payload: Broadcast[IndexedSeq[EmbeddedRec]],
    lambda: Double,
    k: Int,
    p: CPSParams,
    stats: LocalStats = new LocalStats,
) {

  /** Run the given repetitions; returns deduplicated verified pairs. */
  def run(reps: Seq[Int]): Map[(Long, Long), Double] = {
    // Locals, so the task closure does not capture `this` (and its `stats`).
    val bc = payload
    val lam = lambda
    val keyLength = k
    val params = p
    // On the driver: a task's own check would reach the caller as a SparkException.
    Sketch.requireThreshold(lam)
    Verification.dedup { emit =>
      CPSJoinSpark.runTasks(spark, reps, stats, emit) { (it, taskStats, emitTask) =>
        for (r <- it) MinHashLSHLocal.runRep(bc.value, lam, keyLength, r, params, taskStats, emitTask)
      }
    }
  }
}

object MinHashLSHSpark {
  /** One-shot self-join at recall target φ with worst-case repetition count. */
  def selfJoin(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
               phi: Double = 0.9, p: CPSParams = CPSParams(),
               stats: LocalStats = new LocalStats): Map[(Long, Long), Double] = {
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val k = MinHashLSHLocal.chooseK(bc.value, lambda, phi, p.seed)
      val reps = MinHashLSHLocal.repetitionsFor(phi, lambda, k)
      new MinHashLSHSpark(spark, bc, lambda, k, p, stats).run(0 until reps)
    } finally bc.destroy()
  }
}
