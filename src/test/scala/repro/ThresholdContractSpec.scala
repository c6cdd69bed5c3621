package repro

import repro.baselines.{MinHashLSHLocal, MinHashLSHSpark}
import repro.core._

/** The approximate joins take λ ∈ (0, 1), as the exact AllPairs joins do,
  * and every entry point that embeds raw records rejects a record with no
  * tokens.
  */
class ThresholdContractSpec extends SparkSpec {

  private val p = CPSParams(t = 64, ell = 4, reps = 2, seed = 3)
  private val twins = IndexedSeq(SetRec(0, Array(1, 2, 3)), SetRec(1, Array(1, 2, 3)))

  private def approximateJoins(recs: IndexedSeq[SetRec], lambda: Double): Seq[(String, () => Map[(Long, Long), Double])] = {
    def embedded = EmbeddedRec.embedAll(recs, new MinHasher(p.t, p.ell, p.seed)).toIndexedSeq
    Seq(
      "CPSJoinLocal" -> (() => CPSJoinLocal.selfJoinRaw(recs, lambda, p)),
      "CPSJoinSpark" -> (() => CPSJoinSpark.selfJoin(spark, recs, lambda, p)),
      "MinHashLSHLocal" -> (() => MinHashLSHLocal.selfJoin(embedded, lambda, 0.9, p)),
      "MinHashLSHSpark" -> (() => MinHashLSHSpark.selfJoin(spark, recs, lambda, 0.9, p)))
  }

  test("every approximate entry point rejects λ outside (0, 1) and accepts λ inside") {
    for (recs <- Seq(twins, IndexedSeq.empty); lambda <- Seq(0.0, 1.0, 1.5, -0.5, Double.NaN);
         (name, join) <- approximateJoins(recs, lambda))
      withClue(s"$name at λ=$lambda on ${recs.length} records: ") {
        assert(intercept[IllegalArgumentException](join()).getMessage.contains("λ must lie in (0, 1)"))
      }
    for ((name, join) <- approximateJoins(twins, 0.9))
      assert(join() == Map((0L, 1L) -> 1.0), name)
  }

  test("every raw entry point rejects an input that holds an empty set") {
    val withEmpty = twins :+ SetRec(2, Array.empty[Int])
    val rawJoins: Seq[(String, () => Any)] = Seq(
      "CPSJoinLocal.selfJoinRaw" -> (() => CPSJoinLocal.selfJoinRaw(withEmpty, 0.5, p)),
      "CPSJoinSpark.selfJoin" -> (() => CPSJoinSpark.selfJoin(spark, withEmpty, 0.5, p)),
      "CPSJoinSpark.broadcastPayload" -> (() => CPSJoinSpark.broadcastPayload(spark, withEmpty, p)),
      "MinHashLSHSpark.selfJoin" -> (() => MinHashLSHSpark.selfJoin(spark, withEmpty, 0.5, 0.9, p)))
    for ((name, join) <- rawJoins)
      withClue(s"$name: ") {
        assert(intercept[IllegalArgumentException](join()).getMessage == "requirement failed: cannot embed an empty set")
      }
  }
}
