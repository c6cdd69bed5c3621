package repro.baselines

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.core._
import scala.collection.mutable

/** Distributed MinHash LSH self-join (paper Algorithm 3 as a Spark dataflow).
  *
  * Each repetition computes one bucket key per record from k sampled minhash
  * coordinates, shuffles by key, and brute-forces every bucket with the same
  * sketch-filtered verifier as CPSJoin inside `flatMapGroups`. Repetitions
  * are batched into a single dataflow by prefixing the bucket key with the
  * repetition index. The key length k is chosen on the driver with the
  * cost-based rule of §V-B (`MinHashLSHLocal.chooseK`).
  */
final class MinHashLSHSpark(
    spark: SparkSession,
    payload: Broadcast[IndexedSeq[EmbeddedRec]],
    lambda: Double,
    k: Int,
    p: CPSParams,
    stats: StatsSink = NullStats,
) extends Serializable {
  import spark.implicits._

  /** Run the given repetitions; returns deduplicated verified pairs. */
  def run(reps: Seq[Int]): Map[(Long, Long), Double] = {
    val bc = payload
    val recs = payload.value
    val lam = lambda
    val params = p
    val kk = k
    val sink = stats
    val repSeq = reps.toIndexedSeq
    val rows: Seq[(Long, Int)] = for {
      r <- repSeq
      coords = MinHashLSHLocal.repCoordinates(params.t, kk, params.seed, r)
      i <- recs.indices
    } yield (repro.util.Hashing.combine(r.toLong + 1, MinHashLSHLocal.bucketKey(recs(i).mh, coords)), i)

    val pairs = spark.createDataset(rows)
      .groupByKey(_._1)
      .flatMapGroups { (_: Long, it: Iterator[(Long, Int)]) =>
        val bucket = it.map(t => bc.value(t._2)).toIndexedSeq
        if (bucket.length < 2) Iterator.empty
        else {
          val out = mutable.ArrayBuffer.empty[(Long, Long, Double)]
          val lh = Sketch.lambdaHat(lam, params.sketchBits, params.delta)
          Verification.bruteForcePairs(bucket, lam, lh, params.sketchBits, sink,
            (a, b, s) => { out += ((math.min(a, b), math.max(a, b), s)); () })
          out.iterator
        }
      }
      .collect()
    pairs.iterator.map(t => (t._1, t._2) -> t._3).toMap
  }
}

object MinHashLSHSpark {
  /** One-shot self-join at recall target φ with worst-case repetition count. */
  def selfJoin(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
               phi: Double = 0.9, p: CPSParams = CPSParams(),
               stats: StatsSink = NullStats): Map[(Long, Long), Double] = {
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val k = MinHashLSHLocal.chooseK(bc.value, lambda, phi, p.seed)
      val reps = MinHashLSHLocal.repetitionsFor(phi, lambda, k)
      new MinHashLSHSpark(spark, bc, lambda, k, p, stats).run(0 until reps)
    } finally bc.destroy()
  }
}
