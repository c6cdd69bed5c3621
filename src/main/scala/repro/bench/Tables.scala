package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import repro.baselines._

/** Drivers that regenerate each table of the paper's evaluation section.
  * Shared by the `bench/` test suites and the `jobs/` spark-submit
  * entrypoints; every driver prints the reproduced rows (with the paper's
  * values alongside where they are scale-free) and returns them for
  * programmatic use.
  */
object Tables {

  val thresholds: Seq[Double] = Seq(0.5, 0.6, 0.7, 0.8, 0.9)

  // ------------------------------------------------------------- Table I

  /** Table I: dataset size, average set size, sets per token. */
  def table1(scale: Double = Harness.scale, seed: Long = 7L): String = {
    val sb = new StringBuilder
    sb ++= "TABLE I — dataset statistics (reproduction scale vs paper)\n"
    sb ++= f"${"Dataset"}%-12s ${"n(repr)"}%9s ${"avg|x| repr"}%12s ${"avg|x| paper"}%13s ${"sets/tok repr"}%14s ${"sets/tok paper"}%15s\n"
    for (d <- Harness.selectedDatasets) {
      val recs = d.gen(scale, seed)
      val (n, avg, ratio) = Datasets.stats(recs)
      sb ++= f"${d.name}%-12s $n%9d $avg%12.1f ${d.paperAvgSize}%13.1f $ratio%14.1f ${d.paperSetsPerToken}%15.1f\n"
    }
    sb.result()
  }

  // ------------------------------------------------------------ Table II

  /** Paper Table II join times in seconds, for EXPERIMENTS.md diffing:
    * dataset -> λ -> (CP, MH, ALL).
    */
  val paperTable2: Map[String, Map[Double, (Double, Double, Double)]] = Map(
    "AOL" -> Map(0.5 -> (362.1, 1329.9, 483.5), 0.6 -> (113.4, 444.2, 117.8), 0.7 -> (42.2, 152.9, 13.7), 0.8 -> (34.6, 100.6, 4.2), 0.9 -> (21.0, 43.8, 1.6)),
    "BMS-POS" -> Map(0.5 -> (27.0, 40.0, 62.5), 0.6 -> (7.1, 13.7, 20.9), 0.7 -> (2.7, 5.6, 5.6), 0.8 -> (2.0, 3.9, 1.3), 0.9 -> (0.9, 1.4, 0.2)),
    "DBLP" -> Map(0.5 -> (9.2, 22.1, 127.9), 0.6 -> (2.5, 10.1, 63.8), 0.7 -> (1.1, 3.7, 27.4), 0.8 -> (0.6, 1.8, 7.8), 0.9 -> (0.3, 0.7, 0.8)),
    "ENRON" -> Map(0.5 -> (6.9, 16.4, 78.0), 0.6 -> (4.4, 9.9, 23.2), 0.7 -> (2.4, 6.3, 6.0), 0.8 -> (1.6, 2.7, 1.6), 0.9 -> (0.7, 1.7, 0.4)),
    "FLICKR" -> Map(0.5 -> (48.6, 68.0, 17.2), 0.6 -> (30.9, 37.2, 6.0), 0.7 -> (13.8, 21.3, 2.5), 0.8 -> (6.3, 11.3, 1.0), 0.9 -> (3.4, 5.2, 0.3)),
    "KOSARAK" -> Map(0.5 -> (377.9, 311.1, 73.1), 0.6 -> (62.7, 89.2, 14.4), 0.7 -> (7.2, 16.1, 1.6), 0.8 -> (3.9, 9.9, 0.5), 0.9 -> (1.2, 2.6, 0.1)),
    "LIVEJ" -> Map(0.5 -> (131.3, 279.4, 571.7), 0.6 -> (48.7, 129.6, 145.3), 0.7 -> (28.2, 52.9, 30.6), 0.8 -> (16.2, 41.0, 7.1), 0.9 -> (9.2, 12.6, 1.5)),
    "NETFLIX" -> Map(0.5 -> (25.3, 121.8, 1354.7), 0.6 -> (8.2, 60.0, 520.4), 0.7 -> (4.8, 22.6, 177.3), 0.8 -> (2.4, 14.1, 46.2), 0.9 -> (1.6, 5.8, 5.4)),
    "ORKUT" -> Map(0.5 -> (26.5, 115.7, 359.7), 0.6 -> (15.4, 60.1, 106.4), 0.7 -> (8.0, 25.1, 36.3), 0.8 -> (7.4, 19.7, 12.2), 0.9 -> (4.8, 13.3, 3.7)),
    "SPOTIFY" -> Map(0.5 -> (2.5, 9.3, 0.5), 0.6 -> (1.5, 3.4, 0.3), 0.7 -> (1.0, 2.6, 0.2), 0.8 -> (1.0, 1.9, 0.1), 0.9 -> (0.5, 0.6, 0.1)),
    "TOKENS10K" -> Map(0.5 -> (3.4, 4.8, 312.1), 0.6 -> (2.9, 3.9, 236.8), 0.7 -> (1.5, 1.7, 164.0), 0.8 -> (0.6, 1.2, 114.9), 0.9 -> (0.2, 0.4, 63.2)),
    "TOKENS15K" -> Map(0.5 -> (4.4, 6.2, 688.4), 0.6 -> (4.0, 7.1, 535.3), 0.7 -> (1.8, 3.7, 390.4), 0.8 -> (0.7, 1.7, 258.2), 0.9 -> (0.2, 0.7, 140.0)),
    "TOKENS20K" -> Map(0.5 -> (5.7, 12.0, 1264.1), 0.6 -> (4.0, 11.4, 927.0), 0.7 -> (2.1, 4.5, 698.4), 0.8 -> (0.8, 2.2, 494.3), 0.9 -> (0.3, 0.8, 273.4)),
    "UNIFORM005" -> Map(0.5 -> (3.9, 6.6, 54.1), 0.6 -> (1.6, 3.0, 27.6), 0.7 -> (0.9, 1.4, 10.5), 0.8 -> (0.5, 1.0, 3.6), 0.9 -> (0.1, 0.3, 0.4)),
  )

  /** Table II: join time in seconds for CP, MH, ALL at ≥ 90 % recall.
    *
    * Two measurements per cell: the distributed Spark dataflows (the
    * headline numbers; dominated by fixed per-job overhead at reproduction
    * scale) and the single-threaded local engines (`lCP/lMH/lALL`, in
    * milliseconds — overhead-free, comparable in *shape* to the paper's
    * single-core C++ numbers). Every figure is the median of three calls
    * after a warm-up. `lEmb` is the MinHash and sketch embedding those local joins
    * start from, which the paper's protocol leaves out of join time; it runs
    * on all cores.
    */
  def table2(spark: SparkSession, scale: Double = Harness.scale, seed: Long = 7L,
             lambdas: Seq[Double] = thresholds): String = {
    val sb = new StringBuilder
    sb ++= "TABLE II — join time, CP/MH ≥ 90% recall (Spark seconds; local engine milliseconds; paper seconds)\n"
    sb ++= f"${"Dataset"}%-12s ${"λ"}%4s ${"CP(s)"}%8s ${"MH(s)"}%8s ${"ALL(s)"}%8s ${"CPrec"}%6s ${"MHrec"}%6s ${"lCP(ms)"}%8s ${"lMH(ms)"}%8s ${"lALL(ms)"}%9s ${"lALL/lCP"}%9s ${"lEmb(ms)"}%9s ${"paper CP"}%9s ${"paper MH"}%9s ${"paper ALL"}%10s\n"
    for (d <- Harness.selectedDatasets) {
      val recs = d.gen(scale, seed)
      for (lambda <- lambdas) {
        val m = Harness.measure(spark, d.name, recs, lambda)
        val ml = Harness.measureLocal(d.name, recs.toIndexedSeq, lambda)
        val paper = paperTable2.get(d.name).flatMap(_.get(lambda))
        val (pcp, pmh, pall) = paper.getOrElse((Double.NaN, Double.NaN, Double.NaN))
        sb ++= f"${d.name}%-12s $lambda%4.1f ${m.cp.seconds}%8.2f ${m.mh.seconds}%8.2f ${m.all.seconds}%8.2f ${m.cp.recall}%6.2f ${m.mh.recall}%6.2f ${ml.cp.seconds * 1000}%8.1f ${ml.mh.seconds * 1000}%8.1f ${ml.all.seconds * 1000}%9.1f ${ml.all.seconds / math.max(ml.cp.seconds, 1e-9)}%9.2f ${ml.embedSeconds * 1000}%9.1f $pcp%9.1f $pmh%9.1f $pall%10.1f\n"
        println(sb.result().linesIterator.toSeq.last) // stream progress row by row
      }
    }
    sb.result()
  }

  // ----------------------------------------------------------- Table III

  /** Table III: parameter listing + join-time sensitivity sweep (the content
    * of Fig. 3 in tabular form) at λ = 0.5 and ≥ 80 % recall.
    */
  def table3(spark: SparkSession, scale: Double = Harness.scale, seed: Long = 7L,
             datasets: Seq[String] = Seq("DBLP", "NETFLIX", "UNIFORM005")): String = {
    val sb = new StringBuilder
    sb ++= "TABLE III — CPSJoin parameters (test setting / final setting)\n"
    sb ++= "  limit (brute force limit): test 100, final 250\n"
    sb ++= "  ell (sketch word length):  test 4,   final 8\n"
    sb ++= "  t (MinHash set size):      test 128, final 128\n"
    sb ++= "  eps (brute force aggr.):   test 0.0, final 0.1\n"
    sb ++= "  delta (sketch FN prob.):   test 0.1, final 0.05\n\n"
    sb ++= "Sensitivity sweep (λ = 0.5, recall ≥ 80%): join time relative to the test setting\n"
    val lambda = 0.5
    val base = CPSParams(limit = 100, ell = 4, eps = 0.0, delta = 0.1)
    for (name <- datasets if Harness.selectedDatasets.exists(_.name == name)) {
      val recs = Datasets.byName(name).gen(scale, seed)
      // Ground truth computed once per dataset; each configuration then runs
      // only the CPSJoin side of the repeat-until-recall protocol.
      val (truthPairs, _) = Harness.runAllPairs(spark, recs, lambda)
      def timeWith(p: CPSParams): Double = {
        val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
        try {
          val join = new CPSJoinSpark(spark, bc, lambda, p)
          Harness.repeatToRecall(truthPairs.keySet, 0.8, Harness.repBatches(20),
            reps => join.run(reps)).seconds
        } finally bc.destroy()
      }
      val baseT = timeWith(base)
      sb ++= f"$name%-12s base(limit=100,eps=0,ell=4): $baseT%6.2f s\n"
      for (limit <- Seq(10, 100, 250, 500)) {
        val t = timeWith(base.copy(limit = limit))
        sb ++= f"  limit=$limit%-4d rel=${t / math.max(baseT, 1e-9)}%5.2f\n"
      }
      for (eps <- Seq(0.0, 0.1, 0.25)) {
        val t = timeWith(base.copy(eps = eps))
        sb ++= f"  eps=$eps%-5.2f  rel=${t / math.max(baseT, 1e-9)}%5.2f\n"
      }
      for (ell <- Seq(1, 4, 8)) {
        val t = timeWith(base.copy(ell = ell))
        sb ++= f"  ell=$ell%-4d   rel=${t / math.max(baseT, 1e-9)}%5.2f\n"
      }
    }
    sb.result()
  }

  // ------------------------------------------------------------ Table IV

  /** Paper Table IV values (pre-candidates, candidates, results) for the
    * reproduced datasets, at λ = 0.5 and 0.7: dataset -> λ -> (ALL pre, CP
    * pre, ALL cand, CP cand, results ALL, results CP).
    */
  val paperTable4: Map[String, Map[Double, (Double, Double, Double, Double, Double, Double)]] = Map(
    "AOL" -> Map(0.5 -> (8.5e9, 7.4e9, 8.5e9, 1.4e9, 1.3e8, 1.2e8), 0.7 -> (6.2e8, 2.9e9, 6.2e8, 3.1e7, 1.6e6, 1.5e6)),
    "BMS-POS" -> Map(0.5 -> (2.0e9, 9.2e8, 1.8e9, 1.7e8, 1.1e7, 1.0e7), 0.7 -> (2.7e8, 3.3e8, 2.6e8, 4.9e6, 2.0e5, 1.8e5)),
    "DBLP" -> Map(0.5 -> (6.6e9, 4.6e8, 1.9e9, 4.6e7, 1.7e6, 1.6e6), 0.7 -> (1.2e9, 1.3e8, 7.2e8, 4.3e5, 9.1e3, 8.5e3)),
    "ENRON" -> Map(0.5 -> (2.8e9, 3.7e8, 1.8e9, 6.7e7, 3.1e6, 2.9e6), 0.7 -> (2.0e8, 1.5e8, 1.3e8, 2.1e7, 1.2e6, 1.2e6)),
    "FLICKR" -> Map(0.5 -> (5.7e8, 2.1e9, 4.1e8, 1.1e9, 6.6e7, 6.1e7), 0.7 -> (9.3e7, 9.0e8, 6.3e7, 3.8e8, 2.5e7, 2.3e7)),
    "KOSARAK" -> Map(0.5 -> (2.6e9, 4.7e9, 2.5e9, 2.1e9, 2.3e8, 2.1e8), 0.7 -> (7.4e7, 4.2e8, 6.8e7, 2.1e7, 4.4e5, 4.1e5)),
    "LIVEJ" -> Map(0.5 -> (9.0e9, 2.8e9, 8.3e9, 3.6e8, 2.4e7, 2.2e7), 0.7 -> (5.8e8, 1.2e9, 5.6e8, 1.8e7, 8.1e5, 7.6e5)),
    "NETFLIX" -> Map(0.5 -> (8.6e10, 1.3e9, 1.3e10, 3.1e7, 1.0e6, 9.5e5), 0.7 -> (1.0e10, 4.3e8, 3.4e9, 6.4e5, 2.4e4, 2.2e4)),
    "ORKUT" -> Map(0.5 -> (5.1e9, 1.1e9, 3.9e9, 1.3e6, 9.0e4, 8.4e4), 0.7 -> (3.0e8, 7.2e8, 2.6e8, 8.1e4, 5.6e3, 5.3e3)),
    "SPOTIFY" -> Map(0.5 -> (5.0e6, 1.2e8, 4.8e6, 3.1e5, 2.0e4, 1.8e4), 0.7 -> (4.7e5, 8.5e7, 4.6e5, 2.7e3, 2.0e2, 1.9e2)),
    "TOKENS10K" -> Map(0.5 -> (1.5e10, 1.7e8, 4.1e8, 5.7e6, 1.3e5, 1.3e5), 0.7 -> (8.1e9, 4.9e7, 4.1e8, 1.9e6, 7.4e4, 6.9e4)),
    "TOKENS15K" -> Map(0.5 -> (3.6e10, 3.0e8, 9.6e8, 7.2e6, 1.4e5, 1.3e5), 0.7 -> (1.9e10, 8.1e7, 9.6e8, 1.9e6, 7.5e4, 6.9e4)),
    "TOKENS20K" -> Map(0.5 -> (6.4e10, 4.4e8, 1.7e9, 8.8e6, 1.4e5, 1.4e5), 0.7 -> (3.4e10, 1.0e8, 1.7e9, 1.9e6, 7.9e4, 7.4e4)),
    "UNIFORM005" -> Map(0.5 -> (2.5e9, 3.7e8, 2.0e9, 9.5e6, 2.6e5, 2.4e5), 0.7 -> (6.5e8, 1.3e8, 6.1e8, 3.9e4, 1.4e3, 1.3e3)),
  )

  /** Table IV: pre-candidates, candidates, results for ALL and CP. */
  def table4(spark: SparkSession, scale: Double = Harness.scale, seed: Long = 7L,
             lambdas: Seq[Double] = Seq(0.5, 0.7)): String = {
    val sb = new StringBuilder
    sb ++= "TABLE IV — pre-candidates / candidates / results (measured; paper values scale with n²)\n"
    sb ++= f"${"Dataset"}%-12s ${"λ"}%4s ${"ALL pre"}%10s ${"CP pre"}%10s ${"ALL cand"}%10s ${"CP cand"}%10s ${"results"}%9s ${"CP found"}%9s\n"
    val p = CPSParams()
    for (d <- Harness.selectedDatasets) {
      val recs = d.gen(scale, seed)
      // The payload does not depend on λ: embed and broadcast it once per dataset.
      val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
      try for (lambda <- lambdas) {
        val (truthPairs, allRun) = Harness.runAllPairs(spark, recs, lambda)
        val cpStats = new LocalStats
        val cpJoin = new CPSJoinSpark(spark, bc, lambda, p, cpStats)
        val cp = Harness.repeatToRecall(truthPairs.keySet, 0.9, Harness.repBatches(20),
          reps => cpJoin.run(reps))
        sb ++= f"${d.name}%-12s $lambda%4.1f ${allRun.pre}%10d ${cpStats.pre}%10d ${allRun.cand}%10d ${cpStats.cand}%10d ${truthPairs.size}%9d ${cp.results}%9d\n"
        println(sb.result().linesIterator.toSeq.last)
      } finally bc.destroy()
    }
    sb.result()
  }
}
