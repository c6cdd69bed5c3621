package repro.core

import repro.{SparkSpec, TestUtil}
import repro.data.Datasets

class CPSJoinSparkSpec extends SparkSpec {

  private val p = CPSParams(t = 64, ell = 4, limit = 40, eps = 0.1, delta = 0.05, reps = 6, seed = 99)

  // Both engines run the same `CPSJoinLocal.node` on the same buckets with
  // the same node seeds: the Spark engine runs the root on the driver and
  // every first-level subtree in one job. So for equal parameters they must
  // report the same pairs, similarities and Table IV counters.
  private def assertEnginesEqual(recs: IndexedSeq[SetRec], lambda: Double, q: CPSParams = p): Unit = {
    val localStats = new LocalStats
    val local = CPSJoinLocal.selfJoinRaw(recs, lambda, q, localStats)
    val sparkStats = new LocalStats
    val dist = CPSJoinSpark.selfJoin(spark, recs, lambda, q, sparkStats)
    val samePairs = dist == local
    assert(samePairs,
      s"missing=${local.keySet.diff(dist.keySet).take(3)} extra=${dist.keySet.diff(local.keySet).take(3)}")
    assert((sparkStats.pre, sparkStats.cand, sparkStats.res) == ((localStats.pre, localStats.cand, localStats.res)))
  }

  test("distributed CPSJoin equals the local implementation exactly (same seeds)") {
    assertEnginesEqual(TestUtil.randomRecords(400, 15, 100, seed = 91, spread = 5), 0.5)
  }

  for ((name, lambda) <- Seq(("DBLP", 0.5), ("NETFLIX", 0.7), ("UNIFORM005", 0.5), ("TOKENS10K", 0.8)))
    test(s"distributed equals local on $name at λ=$lambda") {
      assertEnginesEqual(Datasets.byName(name).gen(scale = 0.16, seed = 92).toIndexedSeq, lambda)
    }

  test("distributed equals local when ids are not in ascending order") {
    // The bucket sketch samples members by position, so the tree depends on
    // the input order; both engines must keep it.
    val recs = Datasets.byName("AOL").gen(scale = 0.16, seed = 92).toIndexedSeq
    assertEnginesEqual(recs.reverse, 0.5)
    assertEnginesEqual(new scala.util.Random(5).shuffle(recs), 0.5)
  }

  for (depth <- 0 to 2)
    test(s"distributed equals local at maxDepth $depth") {
      assertEnginesEqual(TestUtil.randomRecords(300, 12, 60, seed = 97, spread = 4), 0.5,
        p.copy(maxDepth = depth))
    }

  test("one run call starts exactly one Spark job") {
    val recs = TestUtil.randomRecords(300, 15, 90, seed = 98, spread = 4)
    for (q <- Seq(p, p.copy(maxDepth = 0))) {
      val bc = CPSJoinSpark.broadcastPayload(spark, recs, q)
      val (jobs, shuffleBytes) =
        try jobsAndShuffleBytes(new CPSJoinSpark(spark, bc, 0.5, q).run(0 until q.reps))
        finally bc.destroy()
      assert(jobs == 1 && shuffleBytes == 0, s"maxDepth=${q.maxDepth}")
    }
  }

  test("recall >= 0.8 and precision = 1 against ground truth (10 reps)") {
    val recs = Datasets.byName("BMS-POS").gen(scale = 0.2, seed = 93).toIndexedSeq
    val truth = TestUtil.bruteTruth(recs, 0.5)
    val res = CPSJoinSpark.selfJoin(spark, recs, 0.5, p.copy(reps = 10))
    TestUtil.assertPerfectPrecision(res, recs, 0.5)
    assert(TestUtil.recall(res.keySet, truth.keySet) >= 0.8)
  }

  test("stats counted in Spark tasks are populated") {
    val recs = TestUtil.randomRecords(300, 15, 80, seed = 94, spread = 4)
    val stats = new LocalStats
    CPSJoinSpark.selfJoin(spark, recs, 0.5, p, stats)
    assert(stats.pre > 0 && stats.pre >= stats.cand && stats.cand >= stats.res)
  }

  test("LocalStats does not serialize, so no Spark closure can carry a driver-side counter") {
    val out = new java.io.ObjectOutputStream(new java.io.ByteArrayOutputStream)
    intercept[java.io.NotSerializableException](out.writeObject(new LocalStats))
  }

  test("a Spark job whose closure captures a LocalStats fails as not serializable") {
    val stats = new LocalStats
    val e = intercept[org.apache.spark.SparkException](
      spark.sparkContext.parallelize(1 to 4, 2).foreach(_ => stats.pre += 1))
    assert(e.getMessage.contains("Task not serializable"), e.getMessage)
  }

  test("incremental repetitions: running reps in two batches equals one batch") {
    val recs = TestUtil.randomRecords(300, 15, 90, seed = 95, spread = 4)
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val join = new CPSJoinSpark(spark, bc, 0.5, p)
      val oneBatch = join.run(0 until 4)
      val twoBatches = join.run(0 until 2) ++ join.run(2 until 4)
      assert(oneBatch == twoBatches)
    } finally bc.destroy()
  }

  test("empty and single-record inputs yield no pairs") {
    assert(CPSJoinSpark.selfJoin(spark, IndexedSeq.empty, 0.5, p).isEmpty)
    assert(CPSJoinSpark.selfJoin(spark, IndexedSeq(SetRec(0, Array(1, 2))), 0.5, p).isEmpty)
  }

  test("maxDepth cap forces termination and keeps strong pairs") {
    val recs = TestUtil.randomRecords(200, 12, 60, seed = 96)
    val res = CPSJoinSpark.selfJoin(spark, recs, 0.5, p.copy(maxDepth = 2, reps = 2))
    val strong = TestUtil.bruteTruth(recs, 0.7).keySet
    // With the cap the tree is cut at depth 2 and every live bucket is brute
    // forced, so well-above-threshold pairs must all be present.
    assert(strong.subsetOf(res.keySet))
  }
}
