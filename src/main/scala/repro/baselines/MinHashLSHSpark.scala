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
object MinHashLSHSpark {

  /** Repetitions `reps` at key length k; returns deduplicated verified pairs. */
  def run(spark: SparkSession, payload: Broadcast[IndexedSeq[EmbeddedRec]], lambda: Double, k: Int,
          reps: Seq[Int], p: CPSParams, stats: LocalStats): Map[(Long, Long), Double] = {
    // On the driver: a task's own check would reach the caller as a SparkException.
    Sketch.requireThreshold(lambda)
    CPSJoinSpark.runTasks(spark, payload, reps, stats) { (recs, r, taskStats, emit) =>
      MinHashLSHLocal.runRep(recs, lambda, k, r, p, taskStats, emit)
    }
  }

  /** One-shot self-join at recall target φ with worst-case repetition count. */
  def selfJoin(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
               phi: Double = 0.9, p: CPSParams = CPSParams(),
               stats: LocalStats = new LocalStats): Map[(Long, Long), Double] = {
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val k = MinHashLSHLocal.chooseK(bc.value, lambda, phi, p.seed)
      run(spark, bc, lambda, k, 0 until MinHashLSHLocal.repetitionsFor(phi, lambda, k), p, stats)
    } finally bc.destroy()
  }
}
