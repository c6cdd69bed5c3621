package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.SetRec

/** Distributed exact ALLPAIRS self-join on the DataFrame API (Catalyst).
  *
  * The classic prefix-filtering dataflow (Vernica-style):
  *  1. token frequencies + global rarest-first ranking (window `row_number`);
  *  2. records mapped into rank space (ascending rank = rarest-first);
  *  3. probing-prefix explode (prefix length |x| − ⌈λ|x|⌉ + 1 — any pair
  *     with J ≥ λ shares a probing-prefix token under a common order);
  *  4. token equi-join with id ordering and symmetric size filter
  *     λ·max(|x|,|y|) ≤ min(|x|,|y|);
  *  5. pair dedup, re-join token arrays, exact Jaccard verification.
  *
  * Returns the result pairs plus Table IV counters: pre-candidates (token
  * join matches before dedup) and candidates (distinct pairs verified).
  */
object AllPairsSpark {

  final case class JoinResult(pairs: DataFrame, preCandidates: Long, candidates: Long)

  private val jaccardUdf = udf { (x: Seq[Int], y: Seq[Int]) =>
    val xs = x.toArray; val ys = y.toArray
    var i = 0; var j = 0; var inter = 0
    while (i < xs.length && j < ys.length) {
      if (xs(i) == ys(j)) { inter += 1; i += 1; j += 1 }
      else if (xs(i) < ys(j)) i += 1
      else j += 1
    }
    inter.toDouble / (xs.length + ys.length - inter)
  }

  /** Input records as a DataFrame (id: long, tokens: array<int>); ids must
    * be distinct.
    */
  def toDF(spark: SparkSession, recs: Seq[SetRec]): DataFrame = {
    SetRec.requireDistinctIds(recs)
    import spark.implicits._
    recs.map(r => (r.id, r.tokens.toSeq)).toDF("id", "tokens")
  }

  /** Exact self-join of (id, tokens) records at threshold `lambda`. */
  def selfJoin(spark: SparkSession, records: DataFrame, lambda: Double): JoinResult = {
    require(lambda > 0 && lambda < 1)
    val exploded = records.select(col("id"), explode(col("tokens")).as("token"))
    // Rarest-first global token order; rank 0 is the rarest token.
    val ranks = exploded
      .groupBy("token").agg(count(lit(1)).as("freq"))
      .withColumn("rank", row_number().over(Window.orderBy(col("freq"), col("token"))) - 1)
    val ranked = exploded
      .join(ranks, "token")
      .groupBy("id")
      .agg(sort_array(collect_list(col("rank"))).as("rtokens"))
      .withColumn("size", size(col("rtokens")))
    // Probing prefix: first |x| − ceil(λ|x|) + 1 rank-space tokens.
    val prefixLen = (col("size") - ceil(col("size") * lambda - 1e-9) + 1).cast("int")
    val prefixes = ranked
      .select(col("id"), col("size"), explode(slice(col("rtokens"), lit(1), prefixLen)).as("ptoken"))
    val a = prefixes.select(col("id").as("id1"), col("size").as("size1"), col("ptoken"))
    val b = prefixes.select(col("id").as("id2"), col("size").as("size2"), col("ptoken"))
    val joined = a.join(b,
      a("ptoken") === b("ptoken") &&
        col("id1") < col("id2") &&
        greatest(col("size1"), col("size2")) * lambda <= least(col("size1"), col("size2")) + 1e-9)
      .select("id1", "id2")
      .persist()
    val preCandidates = joined.count()
    val candidatePairs = joined.distinct().persist()
    val candidates = candidatePairs.count()
    val withTokens = candidatePairs
      .join(ranked.select(col("id").as("id1"), col("rtokens").as("t1")), "id1")
      .join(ranked.select(col("id").as("id2"), col("rtokens").as("t2")), "id2")
    val pairs = withTokens
      .withColumn("sim", jaccardUdf(col("t1"), col("t2")))
      .filter(col("sim") >= lambda - 1e-12)
      .select("id1", "id2", "sim")
    val out = pairs.persist()
    out.count() // materialize before unpersisting the lineage
    joined.unpersist(blocking = false)
    candidatePairs.unpersist(blocking = false)
    JoinResult(out, preCandidates, candidates)
  }

  /** Convenience: self-join raw records, collect result pairs to the driver. */
  def selfJoinCollect(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec],
                      lambda: Double): (Map[(Long, Long), Double], Long, Long) = {
    val res = selfJoin(spark, toDF(spark, recs.toSeq), lambda)
    val m = res.pairs.collect().iterator
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2))
      .toMap
    res.pairs.unpersist(blocking = false)
    (m, res.preCandidates, res.candidates)
  }
}
