package repro.baselines

import repro.{SparkSpec, TestUtil}
import repro.core._
import repro.data.Datasets

class MinHashLSHSparkSpec extends SparkSpec {

  private val p = CPSParams(t = 64, ell = 4, seed = 17)

  // Both engines run the same repetitions with `MinHashLSHLocal.runRep`: the
  // Spark engine runs each whole repetition (its buckets and their brute
  // force) in a task of one job. So for equal parameters they must report the
  // same pairs, similarities and Table IV counters.
  private def assertEnginesEqual(recs: IndexedSeq[SetRec], lambda: Double, k: Int, reps: Seq[Int]): Unit = {
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val localStats = new LocalStats
      val local = MinHashLSHLocal.run(bc.value, lambda, k, reps, p, localStats)
      val sparkStats = new LocalStats
      val dist = new MinHashLSHSpark(spark, bc, lambda, k, p, sparkStats).run(reps)
      val samePairs = dist == local
      assert(samePairs,
        s"missing=${local.keySet.diff(dist.keySet).take(3)} extra=${dist.keySet.diff(local.keySet).take(3)}")
      assert((sparkStats.pre, sparkStats.cand, sparkStats.res) == ((localStats.pre, localStats.cand, localStats.res)))
    } finally bc.destroy()
  }

  test("distributed repetitions equal the local repetitions (same seeds)") {
    assertEnginesEqual(TestUtil.randomRecords(300, 12, 60, seed = 111, spread = 4), 0.5, k = 3, 0 until 5)
    // Ids not in ascending order: both engines must keep the input order.
    val aol = Datasets.byName("AOL").gen(scale = 0.16, seed = 92).toIndexedSeq
    assertEnginesEqual(aol.reverse, 0.5, k = 3, 0 until 8)
    assertEnginesEqual(new scala.util.Random(5).shuffle(aol), 0.5, k = 3, 0 until 8)
  }

  test("one run call starts exactly one Spark job and writes no shuffle bytes") {
    val recs = TestUtil.randomRecords(300, 12, 60, seed = 113, spread = 4)
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    val (jobs, shuffleBytes) =
      try jobsAndShuffleBytes(new MinHashLSHSpark(spark, bc, 0.5, 3, p).run(0 until 5))
      finally bc.destroy()
    assert(jobs == 1 && shuffleBytes == 0, s"jobs=$jobs shuffle bytes=$shuffleBytes")
  }

  test("distributed equals local on one repetition, on unordered repetitions and on more than the cores") {
    val recs = Datasets.byName("BMS-POS").gen(scale = 0.2, seed = 93).toIndexedSeq
    assertEnginesEqual(recs, 0.5, k = 3, Seq(2))
    assertEnginesEqual(recs, 0.5, k = 3, Seq(9, 2, 5))
    assertEnginesEqual(recs, 0.5, k = 3, 0 until 2 * spark.sparkContext.defaultParallelism + 1)
  }

  test("incremental repetitions: running reps in two batches equals one batch") {
    val recs = Datasets.byName("BMS-POS").gen(scale = 0.2, seed = 94).toIndexedSeq
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val join = new MinHashLSHSpark(spark, bc, 0.5, 3, p)
      val oneBatch = join.run(0 until 6)
      val twoBatches = join.run(0 until 2) ++ join.run(2 until 6)
      assert(oneBatch.nonEmpty && oneBatch == twoBatches)
    } finally bc.destroy()
  }

  test("a run of two repetitions is one job of two tasks, one repetition each") {
    val recs = TestUtil.randomRecords(300, 12, 60, seed = 113, spread = 4)
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      var tasks = 0
      val (jobs, _) = jobsAndShuffleBytes {
        tasks = tasksAndResultBytes(new MinHashLSHSpark(spark, bc, 0.5, 3, p).run(Seq(2, 7)))._1
      }
      assert(jobs == 1 && tasks == math.min(2, spark.sparkContext.defaultParallelism), s"jobs=$jobs tasks=$tasks")
    } finally bc.destroy()
  }

  for ((name, lambda) <- Seq(("DBLP", 0.5), ("UNIFORM005", 0.7)))
    test(s"recall >= 0.8 and precision = 1 on $name at λ=$lambda") {
      val recs = Datasets.byName(name).gen(scale = 0.2, seed = 112).toIndexedSeq
      val truth = TestUtil.bruteTruth(recs, lambda)
      val res = MinHashLSHSpark.selfJoin(spark, recs, lambda, 0.9, p)
      TestUtil.assertPerfectPrecision(res, recs, lambda)
      assert(TestUtil.recall(res.keySet, truth.keySet) >= 0.8)
    }

  test("trivial inputs") {
    assert(MinHashLSHSpark.selfJoin(spark, IndexedSeq.empty, 0.5, 0.9, p).isEmpty)
    assert(MinHashLSHSpark.selfJoin(spark, IndexedSeq(SetRec(0, Array(1, 2))), 0.5, 0.9, p).isEmpty)
    val three = IndexedSeq(SetRec(0, Array(1, 2, 3)), SetRec(1, Array(1, 2, 3)), SetRec(2, Array(4, 5)))
    assert(MinHashLSHSpark.selfJoin(spark, three, 0.5, 0.9, CPSParams(t = 1)).keySet == Set((0L, 1L)))
  }
}
