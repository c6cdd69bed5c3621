package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets

/** Drivers that regenerate each table of the paper's evaluation section;
  * Tables II and IV come from one measurement pass. Shared by the `bench/`
  * suite and the `jobs/` spark-submit entrypoint; every driver returns the
  * reproduced rows, with the paper's values alongside where they are
  * scale-free.
  */
object Tables {

  val thresholds: Seq[Double] = Seq(0.5, 0.6, 0.7, 0.8, 0.9)

  /** The one dataset seed of every table. */
  private val seed = 7L

  // ------------------------------------------------------------- Table I

  /** Table I: dataset size, average set size, sets per token. */
  def table1(scale: Double = Harness.scale): String = {
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

  // ---------------------------------------------------- Tables II and IV

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

  /** Tables II and IV from one pass over (dataset, λ); returns (Table II,
    * Table IV).
    *
    * Table II: join time in seconds for CP, MH, ALL at ≥ 90 % recall. Two
    * measurements per cell: the distributed Spark dataflows (the
    * headline numbers; dominated by fixed per-job overhead at reproduction
    * scale) and the single-threaded local engines (`lCP/lMH/lALL`, in
    * milliseconds — overhead-free, comparable in *shape* to the paper's
    * single-core C++ numbers). Every figure is the median of three calls
    * after a warm-up. `lEmb` is the MinHash and sketch embedding those local joins
    * start from, which the paper's protocol leaves out of join time; it runs
    * on all cores.
    *
    * Table IV: the counters of the same Spark cells at λ ∈ {0.5, 0.7}
    * (`candidateCounts`).
    */
  def table2(spark: SparkSession, scale: Double = Harness.scale): (String, String) = {
    val cells = for (d <- Harness.selectedDatasets; recs = d.gen(scale, seed); lambda <- thresholds) yield {
      val cell = (Harness.measure(spark, d.name, recs, lambda), Harness.measureLocal(d.name, recs, lambda))
      println(table2Row(cell)) // stream progress row by row
      cell
    }
    val header = "TABLE II — join time, CP/MH ≥ 90% recall (Spark seconds; local engine milliseconds; paper seconds)\n" +
      f"${"Dataset"}%-12s ${"λ"}%4s ${"CP(s)"}%8s ${"MH(s)"}%8s ${"ALL(s)"}%8s ${"CPrec"}%6s ${"MHrec"}%6s ${"lCP(ms)"}%8s ${"lMH(ms)"}%8s ${"lALL(ms)"}%9s ${"lALL/lCP"}%9s ${"lEmb(ms)"}%9s ${"paper CP"}%9s ${"paper MH"}%9s ${"paper ALL"}%10s\n"
    (header + cells.map(table2Row).mkString, candidateCounts(cells.map(_._1)))
  }

  /** One Table II row from a cell's Spark and local measurements. */
  private def table2Row(cell: (Harness.Measurement, Harness.Measurement)): String = {
    val (m, ml) = cell
    val (pcp, pmh, pall) = paperTable2.get(m.dataset).flatMap(_.get(m.lambda))
      .getOrElse((Double.NaN, Double.NaN, Double.NaN))
    f"${m.dataset}%-12s ${m.lambda}%4.1f ${m.cp.seconds}%8.2f ${m.mh.seconds}%8.2f ${m.all.seconds}%8.2f ${m.cp.recall}%6.2f ${m.mh.recall}%6.2f ${ml.cp.seconds * 1000}%8.1f ${ml.mh.seconds * 1000}%8.1f ${ml.all.seconds * 1000}%9.1f ${ml.all.seconds / math.max(ml.cp.seconds, 1e-9)}%9.2f ${ml.embedSeconds * 1000}%9.1f $pcp%9.1f $pmh%9.1f $pall%10.1f\n"
  }

  /** Table IV: pre-candidates, candidates and results for ALL and CP, one
    * row per Spark cell at λ ∈ {0.5, 0.7}. ALL's counters are its exact
    * join's; CP's are those of its median run to ≥ 90 % recall.
    */
  private[bench] def candidateCounts(cells: Seq[Harness.Measurement]): String =
    "TABLE IV — pre-candidates / candidates / results (measured; paper values scale with n²)\n" +
      f"${"Dataset"}%-12s ${"λ"}%4s ${"ALL pre"}%10s ${"CP pre"}%10s ${"ALL cand"}%10s ${"CP cand"}%10s ${"results"}%9s ${"CP found"}%9s\n" +
      cells.filter(m => m.lambda == 0.5 || m.lambda == 0.7).map { m =>
        f"${m.dataset}%-12s ${m.lambda}%4.1f ${m.all.pre}%10d ${m.cp.pre}%10d ${m.all.cand}%10d ${m.cp.cand}%10d ${m.all.results}%9d ${m.cp.results}%9d\n"
      }.mkString

  // ----------------------------------------------------------- Table III

  /** Table III: parameter listing + join-time sensitivity sweep (the content
    * of Fig. 3 in tabular form) at λ = 0.5 and ≥ 80 % recall.
    */
  def table3(spark: SparkSession, scale: Double = Harness.scale): String = {
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
    val configs = Seq(10, 100, 250, 500).map(l => s"limit=$l" -> base.copy(limit = l)) ++
      Seq(0.0, 0.1, 0.25).map(e => f"eps=$e%.2f" -> base.copy(eps = e)) ++
      Seq(1, 4, 8).map(l => s"ell=$l" -> base.copy(ell = l))
    for (name <- Seq("DBLP", "NETFLIX", "UNIFORM005") if Harness.selectedDatasets.exists(_.name == name)) {
      val recs = Datasets.byName(name).gen(scale, seed)
      // Ground truth computed once per dataset; each configuration then runs
      // only the CPSJoin side of the repeat-until-recall protocol, timed as
      // Table II times a cell: one untimed call, then the median of three.
      val truth = Harness.runAllPairs(spark, recs, lambda)._1.keySet
      /** `body` given one call of configuration p (seconds), on its own payload. */
      def withCall(p: CPSParams)(body: (() => Double) => Double): Double = {
        val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
        try {
          val join = new CPSJoinSpark(spark, bc, lambda, p)
          body(() => Harness.repeatToRecall(truth, 0.8, Harness.repBatches(20), join.run).seconds)
        } finally bc.destroy()
      }
      // One untimed call of every configuration before any is timed: without
      // it the first one timed, the base, read slower than the identical
      // configurations timed after it.
      for (p <- base +: configs.map(_._2)) withCall(p)(once => once())
      def timeWith(p: CPSParams): Double = withCall(p) { once => once(); Harness.median3(once()) }
      val baseT = timeWith(base)
      sb ++= f"$name%-12s base(limit=100,eps=0,ell=4): $baseT%6.2f s\n"
      for ((label, p) <- configs)
        sb ++= f"  $label%-10s rel=${timeWith(p) / math.max(baseT, 1e-9)}%5.2f\n"
    }
    sb.result()
  }
}
