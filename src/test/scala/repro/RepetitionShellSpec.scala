package repro

import org.apache.spark.broadcast.Broadcast
import repro.core._
import repro.data.Datasets

/** The shell tests of the two Spark engines that run whole repetitions in
  * the tasks of one `CPSJoinSpark.runTasks` job (CP and MH), written once. A
  * spec names its engine's Spark and local runs of repetitions at λ = 0.5
  * and calls these assertions from its own tests.
  */
trait RepetitionShellSpec extends SparkSpec {

  /** Parameters the payloads are embedded with. */
  protected def p: CPSParams

  /** The Spark engine's run of repetitions `reps` on payload `bc`, embedded with `q`. */
  protected def sparkRun(bc: Broadcast[IndexedSeq[EmbeddedRec]], q: CPSParams, reps: Seq[Int],
                         stats: LocalStats): Map[(Long, Long), Double]

  /** The local engine's run of the same repetitions on the same records. */
  protected def localRun(recs: IndexedSeq[EmbeddedRec], q: CPSParams, reps: Seq[Int],
                         stats: LocalStats): Map[(Long, Long), Double]

  private def withPayload[A](recs: IndexedSeq[SetRec], q: CPSParams)(body: Broadcast[IndexedSeq[EmbeddedRec]] => A): A = {
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, q)
    try body(bc) finally bc.destroy()
  }

  /** The Spark run of `reps` equals the local run of the same repetitions
    * on the same payload, in pairs, similarities and counters; returns the
    * pairs.
    */
  protected def assertRunsEqual(recs: IndexedSeq[SetRec], reps: Seq[Int]): Map[(Long, Long), Double] =
    withPayload(recs, p) { bc =>
      val localStats = new LocalStats
      val local = localRun(bc.value, p, reps, localStats)
      val sparkStats = new LocalStats
      val dist = sparkRun(bc, p, reps, sparkStats)
      assert(dist == local,
        s"reps=$reps missing=${local.keySet.diff(dist.keySet).take(3)} extra=${dist.keySet.diff(local.keySet).take(3)}")
      assert((sparkStats.pre, sparkStats.cand, sparkStats.res) == ((localStats.pre, localStats.cand, localStats.res)),
        s"reps=$reps")
      local
    }

  /** Local ≡ Spark, with pairs found, on one repetition, on unordered
    * repetitions and on more repetitions than the cores.
    */
  protected def assertRunsEqualOnRepetitionSets(): Unit = {
    val recs = Datasets.byName("BMS-POS").gen(scale = 0.2, seed = 93).toIndexedSeq
    for (reps <- Seq(Seq(2), Seq(9, 2, 5), 0 until 2 * spark.sparkContext.defaultParallelism + 1))
      assert(assertRunsEqual(recs, reps).nonEmpty, s"reps=$reps")
  }

  /** One run call over `reps` is one Spark job and writes no shuffle bytes,
    * for payloads embedded with each of `qs`.
    */
  protected def assertOneJob(recs: IndexedSeq[SetRec], qs: Seq[CPSParams], reps: Seq[Int]): Unit =
    for (q <- qs) {
      val (jobs, shuffleBytes) = withPayload(recs, q)(bc => jobsAndShuffleBytes(sparkRun(bc, q, reps, new LocalStats)))
      assert(jobs == 1 && shuffleBytes == 0, s"maxDepth=${q.maxDepth} jobs=$jobs shuffle bytes=$shuffleBytes")
    }

  /** A run of two repetitions is one job of two tasks, one repetition each. */
  protected def assertTwoRepetitionsTwoTasks(recs: IndexedSeq[SetRec]): Unit = withPayload(recs, p) { bc =>
    var tasks = 0
    val (jobs, _) = jobsAndShuffleBytes {
      tasks = tasksAndResultBytes(sparkRun(bc, p, Seq(2, 7), new LocalStats))._1
    }
    assert(jobs == 1 && tasks == math.min(2, spark.sparkContext.defaultParallelism), s"jobs=$jobs tasks=$tasks")
  }

  /** Repetitions 0 until `reps` in two batches (0 until 2, 2 until `reps`)
    * equal one batch; returns the one batch's pairs.
    */
  protected def assertBatchesEqual(recs: IndexedSeq[SetRec], reps: Int): Map[(Long, Long), Double] =
    withPayload(recs, p) { bc =>
      def run(batch: Seq[Int]) = sparkRun(bc, p, batch, new LocalStats)
      val oneBatch = run(0 until reps)
      val twoBatches = run(0 until 2) ++ run(2 until reps)
      assert(oneBatch == twoBatches)
      oneBatch
    }
}
