package repro.baselines

import org.apache.spark.broadcast.Broadcast
import repro.{RepetitionShellSpec, TestUtil}
import repro.core._
import repro.data.Datasets

class MinHashLSHSparkSpec extends RepetitionShellSpec {

  protected val p = CPSParams(t = 64, ell = 4, seed = 17)

  // Both engines run the same repetitions with `MinHashLSHLocal.runRep`: the
  // Spark engine runs each whole repetition (its buckets and their brute
  // force) in a task of one job. So for equal parameters they must report the
  // same pairs, similarities and Table IV counters.
  protected def sparkRun(bc: Broadcast[IndexedSeq[EmbeddedRec]], q: CPSParams, reps: Seq[Int],
                         stats: LocalStats): Map[(Long, Long), Double] =
    MinHashLSHSpark.run(spark, bc, 0.5, 3, reps, q, stats)

  protected def localRun(recs: IndexedSeq[EmbeddedRec], q: CPSParams, reps: Seq[Int],
                         stats: LocalStats): Map[(Long, Long), Double] =
    MinHashLSHLocal.run(recs, 0.5, 3, reps, q, stats)

  test("distributed repetitions equal the local repetitions (same seeds)") {
    assertRunsEqual(TestUtil.randomRecords(300, 12, 60, seed = 111, spread = 4), 0 until 5)
    // Ids not in ascending order: both engines must keep the input order.
    val aol = Datasets.byName("AOL").gen(scale = 0.16, seed = 92).toIndexedSeq
    assertRunsEqual(aol.reverse, 0 until 8)
    assertRunsEqual(new scala.util.Random(5).shuffle(aol), 0 until 8)
  }

  test("one run call starts exactly one Spark job and writes no shuffle bytes") {
    assertOneJob(TestUtil.randomRecords(300, 12, 60, seed = 113, spread = 4), Seq(p), 0 until 5)
  }

  test("distributed equals local on one repetition, on unordered repetitions and on more than the cores") {
    assertRunsEqualOnRepetitionSets()
  }

  test("incremental repetitions: running reps in two batches equals one batch") {
    assert(assertBatchesEqual(Datasets.byName("BMS-POS").gen(scale = 0.2, seed = 94).toIndexedSeq, 6).nonEmpty)
  }

  test("a run of two repetitions is one job of two tasks, one repetition each") {
    assertTwoRepetitionsTwoTasks(TestUtil.randomRecords(300, 12, 60, seed = 113, spread = 4))
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
