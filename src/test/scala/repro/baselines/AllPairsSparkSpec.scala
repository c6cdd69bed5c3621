package repro.baselines

import repro.{Oracle, SparkSpec, TestUtil}
import repro.core.{Jaccard, LocalStats, SetRec}
import repro.data.Datasets
import org.apache.spark.sql.DataFrame
import scala.collection.mutable

class AllPairsSparkSpec extends SparkSpec {

  /** The incremental AllPairs loop that `AllPairsLocal.Prober` replaced:
    * probe x over the records indexed so far, advancing a per-list start
    * pointer past records below the size bound, count overlaps in a
    * `HashMap`, then index x. A probe over the full index must equal it in
    * pairs, similarities and Table IV counters.
    */
  private def incrementalJoin(recs: IndexedSeq[SetRec], lambda: Double, stats: LocalStats): Map[(Long, Long), Double] = {
    if (recs.length < 2) return Map.empty
    val ranks = AllPairsLocal.tokenRanks(recs)
    val sorted: Array[SetRec] = recs.iterator
      .map(r => SetRec(r.id, r.tokens.map(ranks).sorted))
      .toArray
      .sortBy(r => (r.tokens.length, r.id))
    val index = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    val listStart = mutable.HashMap.empty[Int, Int]
    val out = Map.newBuilder[(Long, Long), Double]
    val overlapCount = mutable.HashMap.empty[Int, Int]
    for (xi <- sorted.indices) {
      val x = sorted(xi)
      val sx = x.tokens.length
      val minSize = math.ceil(lambda * sx - 1e-9)
      overlapCount.clear()
      for (tok <- x.tokens.take(AllPairsLocal.probingPrefixLength(sx, lambda)); list <- index.get(tok)) {
        var li = listStart.getOrElse(tok, 0)
        while (li < list.length && sorted(list(li)).tokens.length < minSize) li += 1
        listStart.update(tok, li)
        while (li < list.length) {
          stats.pre += 1
          overlapCount.update(list(li), overlapCount.getOrElse(list(li), 0) + 1)
          li += 1
        }
      }
      for ((yi, _) <- overlapCount) {
        stats.cand += 1
        val y = sorted(yi)
        val inter = Jaccard.intersectionSize(x.tokens, y.tokens)
        if (inter >= Jaccard.overlapThreshold(sx, y.tokens.length, lambda) - 1e-9) {
          val sim = inter.toDouble / (sx + y.tokens.length - inter)
          if (sim >= lambda - 1e-12) {
            stats.res += 1
            out += (((math.min(x.id, y.id), math.max(x.id, y.id)), sim))
          }
        }
      }
      for (tok <- x.tokens.take(AllPairsLocal.indexingPrefixLength(sx, lambda)))
        index.getOrElseUpdate(tok, mutable.ArrayBuffer.empty) += xi
    }
    out.result()
  }

  /** Ground-truth join in SQL (DuckDB side of the oracle): pairs of records
    * sharing tokens whose Jaccard similarity reaches λ.
    */
  private def truthSql(lambda: Double): String =
    s"""
       |WITH tok AS (SELECT CAST(id AS BIGINT) AS id, token FROM tokens),
       |     sz  AS (SELECT CAST(id AS BIGINT) AS id, CAST(sz AS DOUBLE) AS sz FROM sizes),
       |     ov  AS (
       |       SELECT a.id AS id1, b.id AS id2, COUNT(*) AS inter
       |       FROM tok a JOIN tok b ON a.token = b.token AND a.id < b.id
       |       GROUP BY a.id, b.id
       |     )
       |SELECT ov.id1 AS id1, ov.id2 AS id2
       |FROM ov JOIN sz s1 ON s1.id = ov.id1 JOIN sz s2 ON s2.id = ov.id2
       |WHERE CAST(ov.inter AS DOUBLE) / (s1.sz + s2.sz - ov.inter) >= $lambda - 1e-12
       |""".stripMargin

  private def tokensDf(recs: Seq[SetRec]): DataFrame = {
    import spark.implicits._
    recs.flatMap(r => r.tokens.map(t => (r.id, t))).toDF("id", "token")
  }

  private def sizesDf(recs: Seq[SetRec]): DataFrame = {
    import spark.implicits._
    recs.map(r => (r.id, r.tokens.length)).toDF("id", "sz")
  }

  for ((name, scale, lambda) <- Seq(("DBLP", 0.03, 0.5), ("UNIFORM005", 0.04, 0.5),
                                    ("BMS-POS", 0.03, 0.7), ("TOKENS10K", 0.05, 0.8),
                                    ("AOL", 0.03, 0.6)))
    test(s"oracle: AllPairsSpark equals the DuckDB ground-truth join on $name at λ=$lambda") {
      val recs = Datasets.byName(name).gen(scale, seed = 101).toIndexedSeq
      val (pairs, _, _) = AllPairsSpark.selfJoinCollect(spark, recs, lambda)
      import spark.implicits._
      val pairsDf = pairs.keys.toSeq.toDF("id1", "id2")
      Oracle.assertEquivalent(pairsDf, truthSql(lambda),
        "tokens" -> tokensDf(recs), "sizes" -> sizesDf(recs))
    }

  for (lambda <- Seq(0.5, 0.7, 0.9))
    test(s"AllPairsSpark equals AllPairsLocal at λ=$lambda") {
      val recs = TestUtil.randomRecords(250, 12, 60, seed = 102, spread = 6)
      val (dist, pre, cand) = AllPairsSpark.selfJoinCollect(spark, recs, lambda)
      val stats = new LocalStats
      val local = AllPairsLocal.selfJoin(recs, lambda, stats)
      assert(dist.keySet == local.keySet)
      for ((k, v) <- dist) assert(v == local(k), s"similarity of $k")
      assert((pre, cand, dist.size.toLong) == (stats.pre, stats.cand, stats.res))
    }

  for (lambda <- Seq(0.5, 0.7, 0.9))
    test(s"probe over the full index equals the incremental loop at λ=$lambda, both engines") {
      val inputs = Seq(
        "no record" -> IndexedSeq.empty[SetRec],
        "one record" -> IndexedSeq(SetRec(0, Array(1, 2))),
        "equal sizes" -> TestUtil.randomRecords(200, 8, 40, seed = 105),
        "size spread" -> TestUtil.randomRecords(250, 12, 60, seed = 106, spread = 8),
        "AOL" -> Datasets.byName("AOL").gen(0.3, seed = 107).toIndexedSeq)
      for ((name, recs) <- inputs)
        withClue(s"$name: ") {
          val refStats = new LocalStats
          val ref = incrementalJoin(recs, lambda, refStats)
          val refCounts = (refStats.pre, refStats.cand, refStats.res)
          val localStats = new LocalStats
          assert(AllPairsLocal.selfJoin(recs, lambda, localStats) == ref, "local pairs")
          assert((localStats.pre, localStats.cand, localStats.res) == refCounts, "local counters")
          val (dist, pre, cand) = AllPairsSpark.selfJoinCollect(spark, recs, lambda)
          assert(dist == ref, "spark pairs")
          assert((pre, cand, dist.size.toLong) == refCounts, "spark counters")
        }
    }

  test("counters: pre-candidates >= candidates >= results") {
    val recs = TestUtil.randomRecords(300, 12, 50, seed = 103, spread = 4)
    val (pairs, pre, cand) = AllPairsSpark.selfJoinCollect(spark, recs, 0.5)
    assert(pre >= cand && cand >= pairs.size)
    assert(pairs.nonEmpty, "dense universe should produce results")
  }

  test("exactness on a dataset with heavy duplicates") {
    val base = TestUtil.randomRecords(50, 10, 40, seed = 104)
    val recs = base ++ base.map(r => SetRec(r.id + 1000, r.tokens))
    val (dist, _, _) = AllPairsSpark.selfJoinCollect(spark, recs, 0.9)
    val truth = TestUtil.bruteTruth(recs, 0.9)
    assert(dist.keySet == truth.keySet)
  }
}
