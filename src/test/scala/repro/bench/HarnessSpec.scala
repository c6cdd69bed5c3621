package repro.bench

import repro.{SparkSpec, TestUtil}
import repro.baselines.AllPairsSpark
import repro.core.{CPSJoinSpark, CPSParams, LocalStats}
import repro.data.Datasets

class HarnessSpec extends SparkSpec {

  test("repBatches partitions [0, maxReps) into disjoint ascending batches") {
    for (max <- Seq(1, 2, 4, 7, 10, 20)) {
      val batches = Harness.repBatches(max)
      assert(batches.flatten == (0 until max))
      assert(batches.forall(_.nonEmpty))
    }
  }

  test("repeatToRecall stops once the target is met and reports the recall") {
    val truth = Set((1L, 2L), (3L, 4L), (5L, 6L))
    var calls = 0
    val run = Harness.repeatToRecall(truth, 0.6, Seq(Seq(0), Seq(1), Seq(2)), { reps =>
      calls += 1
      reps.head match {
        case 0 => Map((1L, 2L) -> 1.0)
        case 1 => Map((3L, 4L) -> 1.0)
        case _ => Map((5L, 6L) -> 1.0)
      }
    })
    assert(calls == 2, "should stop after reaching 2/3 recall >= 0.6")
    assert(run.reps == 2 && math.abs(run.recall - 2.0 / 3) < 1e-12)
  }

  test("repeatToRecall with empty truth runs the first batch and reports recall 1") {
    var calls = 0
    val run = Harness.repeatToRecall(Set.empty, 0.9, Seq(Seq(0), Seq(1)), { _ => calls += 1; Map.empty })
    assert(run.recall == 1.0 && calls == 1 && run.reps == 1)
  }

  test("measure produces a consistent Table II cell on a small dataset") {
    val recs = Datasets.byName("DBLP").gen(scale = 0.12, seed = 121).toIndexedSeq
    val m = Harness.measure(spark, "DBLP", recs, 0.6)
    assert(m.cp.recall >= 0.9 || m.cp.reps == 20, "CP must hit target recall or exhaust reps")
    assert(m.mh.recall >= 0.9 || m.mh.reps > 0)
    assert(m.all.recall == 1.0)
    assert(m.cp.seconds > 0 && m.mh.seconds > 0 && m.all.seconds > 0)
    // Exact baseline finds everything the approximate methods can find.
    assert(m.cp.results <= m.all.results || m.all.results == 0)
  }

  test("a Spark cell holds its exact join's and its CP repetitions' counters, and Table IV prints them at λ 0.5 and 0.7") {
    val recs = Datasets.byName("DBLP").gen(scale = 0.12, seed = 121).toIndexedSeq
    val p = CPSParams()
    val cells = for (lambda <- Seq(0.5, 0.6, 0.7)) yield {
      val m = Harness.measure(spark, "DBLP", recs, lambda)
      val (pairs, pre, cand) = AllPairsSpark.selfJoinCollect(spark, recs, lambda)
      assert((m.all.pre, m.all.cand, m.all.results) == ((pre, cand, pairs.size)))
      // One call over all the repetitions the protocol ran counts what one
      // of its measured runs counted, and finds the same distinct pairs.
      val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
      try {
        val stats = new LocalStats
        val found = new CPSJoinSpark(spark, bc, lambda, p, stats).run(0 until m.cp.reps)
        assert(m.cp.pre > 0)
        assert((m.cp.pre, m.cp.cand, m.cp.results) == ((stats.pre, stats.cand, found.size)))
      } finally bc.destroy()
      m
    }
    val rows = Tables.candidateCounts(cells).linesIterator.drop(2).map(_.trim.split("\\s+").toSeq).toSeq
    val expected = cells.filter(_.lambda != 0.6).map(m => Seq(m.dataset, f"${m.lambda}%.1f") ++
      Seq(m.all.pre, m.cp.pre, m.all.cand, m.cp.cand, m.all.results.toLong, m.cp.results.toLong).map(_.toString))
    assert(rows == expected)
  }

  test("measureLocal runs the single-threaded protocol end to end") {
    val recs = Datasets.byName("DBLP").gen(scale = 0.12, seed = 122).toIndexedSeq
    val m = Harness.measureLocal("DBLP", recs, 0.6)
    assert(m.all.recall == 1.0 && m.all.seconds > 0)
    assert(m.cp.recall >= 0.9 || m.cp.reps == 20)
    assert(m.cp.results <= m.all.results || m.all.results == 0)
  }

  test("dataset selection env knobs default to the full registry") {
    assert(Harness.selectedDatasets.size == Datasets.all.size)
  }
}
