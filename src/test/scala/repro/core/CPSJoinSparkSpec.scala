package repro.core

import org.apache.spark.broadcast.Broadcast
import repro.{RepetitionShellSpec, TestUtil}
import repro.baselines.{AllPairsSpark, MinHashLSHSpark}
import repro.data.Datasets

class CPSJoinSparkSpec extends RepetitionShellSpec {

  protected val p = CPSParams(t = 64, ell = 4, limit = 40, eps = 0.1, delta = 0.05, reps = 6, seed = 99)

  protected def sparkRun(bc: Broadcast[IndexedSeq[EmbeddedRec]], q: CPSParams, reps: Seq[Int],
                         stats: LocalStats): Map[(Long, Long), Double] =
    new CPSJoinSpark(spark, bc, 0.5, q, stats).run(reps)

  protected def localRun(recs: IndexedSeq[EmbeddedRec], q: CPSParams, reps: Seq[Int],
                         stats: LocalStats): Map[(Long, Long), Double] =
    CPSJoinLocal.run(recs, 0.5, q, reps, stats)

  // Both engines run the same trees with `CPSJoinLocal.runRep`: the Spark
  // engine runs each whole repetition in a task of one job. So for equal
  // parameters they must report the same pairs, similarities and Table IV
  // counters.
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

  test("distributed equals local on one repetition, on unordered repetitions and on more than the cores") {
    assertRunsEqualOnRepetitionSets()
  }

  test("a run of two repetitions is one job of two tasks, one repetition each") {
    assertTwoRepetitionsTwoTasks(TestUtil.randomRecords(300, 15, 90, seed = 98, spread = 4))
  }

  test("one run call starts exactly one Spark job") {
    assertOneJob(TestUtil.randomRecords(300, 15, 90, seed = 98, spread = 4), Seq(p, p.copy(maxDepth = 0)), 0 until p.reps)
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
    assertBatchesEqual(TestUtil.randomRecords(300, 15, 90, seed = 95, spread = 4), 4)
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

  /** Runs `runTasks` over the indices of `items`, each item the pairs (id1 <
    * id2) to emit, broadcast as the payload, with a task that counts per
    * item 1 pre-candidate, a candidate per pair and two results per pair;
    * it must return exactly the distinct emitted pairs and sum the counts.
    */
  private def assertShellDelivers(items: Seq[Seq[(Long, Long, Double)]]): Unit = {
    val stats = new LocalStats
    val bc = spark.sparkContext.broadcast(items)
    val got =
      try CPSJoinSpark.runTasks(spark, bc, items.indices, stats) { (payload, i, taskStats, emit) =>
        val pairs = payload(i)
        taskStats.pre += 1; taskStats.cand += pairs.length; taskStats.res += 2L * pairs.length
        for ((a, b, s) <- pairs) emit(a, b, s)
      } finally bc.destroy()
    val sent = items.flatten
    assert(got == sent.map { case (a, b, s) => (a, b) -> s }.toMap)
    assert((stats.pre, stats.cand, stats.res) == ((items.length.toLong, sent.length.toLong, 2L * sent.length)))
  }

  private def somePairs(from: Long, n: Int): Seq[(Long, Long, Double)] =
    (0 until n).map(i => (from + i, from + i + 1 + i % 3, 0.5 + i % 7 / 14.0))

  test("runTasks: empty items deliver nothing and count nothing") {
    assertShellDelivers(Seq.empty)
  }

  test("runTasks: tasks that emit nothing, beside tasks that do") {
    assertShellDelivers(Seq.fill(6)(Seq.empty))
    assertShellDelivers(Seq(Seq.empty, somePairs(0, 3), Seq.empty, Seq.empty, somePairs(100, 1), Seq.empty))
  }

  test("runTasks: a task that emits far more pairs than its buffer starts with") {
    assertShellDelivers(Seq(somePairs(0, 10000)))
    assertShellDelivers(Seq(somePairs(0, 5000), somePairs(1L << 40, 17), somePairs(-50000, 16)))
  }

  test("runTasks: a pair two tasks emit appears once; both counts are summed") {
    // Two items make two slices (on at least two cores), one task each.
    val twice = Seq((7L, 9L, 0.75))
    assertShellDelivers(Seq(twice, twice))
    assertShellDelivers(Seq(twice ++ twice, twice, somePairs(0, 40) ++ twice))
  }

  test("each Spark engine's tasks return at most 24 bytes a pair plus a fixed amount a task") {
    // A task returns its pairs as three primitive columns (8 + 8 + 8 bytes a
    // pair) with its counts; the fixed part covers the columns' headers and
    // Spark's own per-task result (its metric updates).
    val perTask = 4096L
    val recs = Datasets.byName("AOL").gen(1.0, 7).toIndexedSeq
    val q = CPSParams()
    def check(name: String)(join: LocalStats => Unit): Unit = {
      val stats = new LocalStats
      val (tasks, bytes) = tasksAndResultBytes(join(stats))
      assert(stats.res > 1000 && tasks >= 1, name)
      assert(bytes <= 24 * stats.res + perTask * tasks, s"$name: $bytes bytes for ${stats.res} pairs in $tasks tasks")
    }
    check("CP")(s => CPSJoinSpark.selfJoin(spark, recs, 0.5, q, s))
    check("MH")(s => MinHashLSHSpark.selfJoin(spark, recs, 0.5, 0.9, q, s))
    check("ALL") { s =>
      val (pairs, _, _) = AllPairsSpark.selfJoinCollect(spark, recs, 0.5)
      s.res += pairs.size
    }
  }
}
