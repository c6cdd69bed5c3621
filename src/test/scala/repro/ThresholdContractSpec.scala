package repro

import repro.baselines.{AllPairsLocal, AllPairsSpark, MinHashLSHLocal, MinHashLSHSpark}
import repro.core._

/** The approximate joins take λ ∈ (0, 1), as the exact AllPairs joins do,
  * every raw entry point rejects a record with no tokens, and every raw
  * entry point rejects two records with the same id.
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

  test("the exact AllPairs joins reject λ outside (0, 1) and accept λ inside") {
    def exactJoins(lambda: Double): Seq[(String, () => Map[(Long, Long), Double])] = Seq(
      "AllPairsLocal" -> (() => AllPairsLocal.selfJoin(twins, lambda)),
      "AllPairsSpark" -> (() => AllPairsSpark.selfJoinCollect(spark, twins, lambda)._1))
    for (lambda <- Seq(0.0, 1.0, 1.5, -0.5, Double.NaN); (name, join) <- exactJoins(lambda))
      withClue(s"$name at λ=$lambda: ") { intercept[IllegalArgumentException](join()) }
    for ((name, join) <- exactJoins(0.9))
      assert(join() == Map((0L, 1L) -> 1.0), name)
  }

  test("every raw entry point rejects an input in which two records share an id") {
    val dups = IndexedSeq(SetRec(7, Array(1, 2, 3)), SetRec(7, Array(1, 2, 3)), SetRec(8, Array(1, 2, 3, 4)))
    val rawJoins: Seq[(String, () => Any)] = Seq(
      "CPSJoinLocal.selfJoinRaw" -> (() => CPSJoinLocal.selfJoinRaw(dups, 0.5, p)),
      "CPSJoinSpark.selfJoin" -> (() => CPSJoinSpark.selfJoin(spark, dups, 0.5, p)),
      "MinHashLSHLocal.selfJoin" -> (() => MinHashLSHLocal.selfJoin(
        EmbeddedRec.embedAll(dups, new MinHasher(p.t, p.ell, p.seed)).toIndexedSeq, 0.5, 0.9, p)),
      "MinHashLSHSpark.selfJoin" -> (() => MinHashLSHSpark.selfJoin(spark, dups, 0.5, 0.9, p)),
      "AllPairsLocal.selfJoin" -> (() => AllPairsLocal.selfJoin(dups, 0.5)),
      "AllPairsSpark.selfJoinCollect" -> (() => AllPairsSpark.selfJoinCollect(spark, dups, 0.5)))
    for ((name, join) <- rawJoins)
      withClue(s"$name: ") {
        assert(intercept[IllegalArgumentException](join()).getMessage == "requirement failed: duplicate record id 7")
      }
  }

  test("every raw entry point rejects an input that holds an empty set") {
    val withEmpty = twins :+ SetRec(2, Array.empty[Int])
    val embedding = "requirement failed: cannot embed an empty set"
    val prefixFilter = "requirement failed: record 2 is an empty set"
    val rawJoins: Seq[(String, String, () => Any)] = Seq(
      ("CPSJoinLocal.selfJoinRaw", embedding, () => CPSJoinLocal.selfJoinRaw(withEmpty, 0.5, p)),
      ("CPSJoinSpark.selfJoin", embedding, () => CPSJoinSpark.selfJoin(spark, withEmpty, 0.5, p)),
      ("CPSJoinSpark.broadcastPayload", embedding, () => CPSJoinSpark.broadcastPayload(spark, withEmpty, p)),
      ("MinHashLSHSpark.selfJoin", embedding, () => MinHashLSHSpark.selfJoin(spark, withEmpty, 0.5, 0.9, p)),
      ("AllPairsLocal.selfJoin", prefixFilter, () => AllPairsLocal.selfJoin(withEmpty, 0.5)),
      ("AllPairsSpark.selfJoinCollect", prefixFilter, () => AllPairsSpark.selfJoinCollect(spark, withEmpty, 0.5)))
    for ((name, message, join) <- rawJoins)
      withClue(s"$name: ") {
        assert(intercept[IllegalArgumentException](join()).getMessage == message)
      }
  }
}
