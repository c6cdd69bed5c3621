package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CPSJoinSpark, LocalStats, SetRec}

/** Distributed exact ALLPAIRS self-join: a distribution shell around
  * `AllPairsLocal`'s two steps.
  *
  * The driver runs `AllPairsLocal.prepare` (rank map, (size, id) order,
  * inverted index) and broadcasts it; one job (`CPSJoinSpark.runTasks`, the
  * task shell of every Spark engine) probes every record against the records
  * before it, record xi in slice xi mod s of s = min(n, defaultParallelism)
  * slices. Striding spreads the later, longer probes over all slices. So
  * both engines report the same pairs, similarities and Table IV counters.
  */
object AllPairsSpark {

  /** Input records as a DataFrame (id: long, tokens: array<int>); ids must
    * be distinct. No join reads it. It keeps this signature because the
    * join benchmark (`joinbench/`) compiles against it and calls it in its
    * Spark set-up, which `setup_s` times.
    */
  def toDF(spark: SparkSession, recs: Seq[SetRec]): DataFrame = {
    SetRec.requireDistinctIds(recs)
    import spark.implicits._
    recs.map(r => (r.id, r.tokens.toSeq)).toDF("id", "tokens")
  }

  /** Exact self-join of raw records at threshold `lambda`: the result pairs
    * (id1 < id2) with their similarity, the pre-candidates and the
    * candidates. Each pair is found once, so the results count is the
    * number of pairs.
    */
  def selfJoinCollect(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec],
                      lambda: Double): (Map[(Long, Long), Double], Long, Long) = {
    val prepared = AllPairsLocal.prepare(recs, lambda)
    val slices = math.min(prepared.length, spark.sparkContext.defaultParallelism)
    val bc = spark.sparkContext.broadcast(prepared)
    val stats = new LocalStats
    val pairs =
      try CPSJoinSpark.runTasks(spark, bc, 0 until slices, stats) { (prep, slice, taskStats, emit) =>
        val prober = new AllPairsLocal.Prober(prep)
        for (xi <- slice until prep.length by slices) prober.probe(xi, taskStats, emit)
      } finally bc.destroy()
    (pairs, stats.pre, stats.cand)
  }
}
