package repro.baselines

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.core._

/** Distributed MinHash LSH self-join (paper Algorithm 3): a distribution
  * shell around `MinHashLSHLocal.buckets`.
  *
  * The driver buckets the broadcast payload for every repetition with the
  * local engine's bucketing; one job (`CPSJoinSpark.finishBuckets`, the one
  * CPSJoin uses) then brute-forces every bucket with the same
  * sketch-filtered verifier as CPSJoin, and the driver deduplicates the
  * collected pairs. So for equal parameters both engines report the same
  * pairs and Table IV counters. The key length k is chosen on the driver
  * with the cost-based rule of §V-B (`MinHashLSHLocal.chooseK`).
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
    val lam = lambda
    val params = p
    val maxD = Verification.maxDistance(lam, params)
    val buckets = for (r <- reps; b <- MinHashLSHLocal.buckets(payload.value, k, r, params)) yield (b, ())
    Verification.dedup { emit =>
      CPSJoinSpark.finishBuckets(spark, payload, buckets, stats, emit) { (bucket, _, taskStats, emitTask) =>
        Verification.bruteForcePairs(bucket, lam, maxD, taskStats, emitTask)
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
