package repro.joinbench

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._

/** The four timed join calls of a workload, through the program's public entry points.
  * `cpJoin` runs on a payload embedded once, untimed (locally on first use), the paper's
  * "preprocessing excluded" protocol; the other three start from raw records.
  */
sealed trait Engines extends AutoCloseable {
  type Pairs = Map[(Long, Long), Double]
  def cpE2e(): Pairs
  def cpJoin(): Pairs
  def mhE2e(): Pairs
  def all(): Pairs
  /** The embedded payload `cpJoin` reads; kept referenced for the heap metric. */
  def payload: AnyRef
}

final class LocalEngines(recs: IndexedSeq[SetRec]) extends Engines {
  import Fixed._
  private def embed(): IndexedSeq[EmbeddedRec] =
    EmbeddedRec.embedAll(recs, new MinHasher(params.t, params.ell, params.seed)).toIndexedSeq

  lazy val payload: IndexedSeq[EmbeddedRec] = embed()

  def cpE2e(): Pairs = CPSJoinLocal.selfJoinRaw(recs, lambda, params)
  def cpJoin(): Pairs = CPSJoinLocal.selfJoin(payload, lambda, params)
  def mhE2e(): Pairs = MinHashLSHLocal.selfJoin(embed(), lambda, phi, params)
  def all(): Pairs = AllPairsLocal.selfJoin(recs, lambda)
  def close(): Unit = ()
}

final class SparkEngines(spark: SparkSession, recs: IndexedSeq[SetRec]) extends Engines {
  import Fixed._
  val payload = CPSJoinSpark.broadcastPayload(spark, recs, params)

  def cpE2e(): Pairs = CPSJoinSpark.selfJoin(spark, recs, lambda, params)
  def cpJoin(): Pairs = new CPSJoinSpark(spark, payload, lambda, params).run(0 until params.reps)
  def mhE2e(): Pairs = MinHashLSHSpark.selfJoin(spark, recs, lambda, phi, params)
  def all(): Pairs = AllPairsSpark.selfJoinCollect(spark, recs, lambda)._1
  def close(): Unit = payload.destroy()
}
