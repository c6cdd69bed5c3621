package repro.joinbench

import org.apache.spark.JoinbenchListenerBus
import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import scala.collection.mutable

/** Traced run: per-layer metrics, timed from outside around each layer's public
  * functions. It runs in its own process, apart from the timed runs, and also
  * reports `trace.overhead_ratio`, the traced CP time over the untraced one.
  *
  * Every workload reports every per-layer metric. The local layers run on the
  * workload's input whatever its engine (Spark explores the same tree); the
  * `spark.*` metrics read 0 on a local workload, which starts no Spark job.
  */
object TracedRun {
  import Fixed._

  type Metrics = mutable.ArrayBuffer[(String, Double, String)]

  def apply(w: Workload, seed: Long): Result = {
    val recs = w.generate(seed)
    val checker = new Checker(recs, lambda)
    val m: Metrics = mutable.ArrayBuffer.empty

    // repro.core.MinHash
    val hasher = new MinHasher(params.t, params.ell, params.seed)
    var embedded: IndexedSeq[EmbeddedRec] = null
    val embedS = Clock.median((1 to 3).map { _ =>
      val (e, s) = Clock.time(EmbeddedRec.embedAll(recs, hasher).toIndexedSeq)
      embedded = e
      s
    })
    val tokens = recs.iterator.map(_.size.toLong).sum
    m += (("embed.s", embedS, "s"), ("embed.tokens", tokens.toDouble, "count"),
      ("embed.ns_per_token", embedS * 1e9 / tokens, "ns"))

    // repro.core.CPSJoinLocal, Verification and Sketch: the tree walk, alternating with
    // untraced CPSJoinLocal.selfJoin calls on the same payload.
    val plain = mutable.ArrayBuffer.empty[Double]
    val walks = mutable.ArrayBuffer.empty[(TreeWalk, Double)]
    var reference = Map.empty[(Long, Long), Double]
    for (_ <- 1 to 3) {
      System.gc()
      val (ref, s) = Clock.time(CPSJoinLocal.selfJoin(embedded, lambda, params))
      reference = ref
      plain += s
      System.gc()
      val walk = new TreeWalk(lambda, params)
      walks += ((walk, Clock.time(walk.join(embedded))._2))
    }
    for ((walk, _) <- walks) checker.call("cp tree walk", Some(reference.keySet))(walk.pairs.toMap)
    val walk = walks.last._1
    def walkMedian(f: TreeWalk => Double) = Clock.median(walks.map(x => f(x._1)).toSeq)
    m += (("cp.rep_s", walkMedian(w => Clock.median(w.repSeconds.toSeq)), "s"),
      ("cp.bf_step_s", walkMedian(_.bfStepNs / 1e9), "s"),
      ("cp.split_s", walkMedian(_.splitNs / 1e9), "s"),
      ("cp.nodes", walk.nodes.toDouble, "count"),
      ("cp.levels", walk.levels.toDouble, "count"),
      ("cp.bf_points", walk.bfPoints.toDouble, "count"),
      ("cp.limit_nodes", walk.limitNodes.toDouble, "count"),
      ("cp.cap_finishes", walk.capFinishes.toDouble, "count"),
      ("cp.max_bucket", walk.maxBucket.toDouble, "count"))
    m ++= filterCounts("cp", walk.stats, walk.pairs.size)

    // repro.baselines.MinHashLSHLocal, walked as its selfJoin does.
    val (k, chooseS) = Clock.time(MinHashLSHLocal.chooseK(embedded, lambda, phi, params.seed))
    val mhReps = MinHashLSHLocal.repetitionsFor(phi, lambda, k)
    val mhStats = new LocalStats
    val mhPairs = mutable.HashMap.empty[(Long, Long), Double]
    val mhEmit = (a: Long, b: Long, s: Double) => { mhPairs.update((math.min(a, b), math.max(a, b)), s); () }
    val mhJoinS = Clock.time {
      for (r <- 0 until mhReps) MinHashLSHLocal.runRep(embedded, lambda, k, r, params, mhStats, mhEmit)
    }._2
    checker.call("mh layer walk", Some(MinHashLSHLocal.selfJoin(embedded, lambda, phi, params).keySet))(mhPairs.toMap)
    m += (("mh.choose_k_s", chooseS, "s"), ("mh.k", k.toDouble, "count"),
      ("mh.reps", mhReps.toDouble, "count"), ("mh.join_s", mhJoinS, "s"))
    m ++= filterCounts("mh", mhStats, mhPairs.size)

    // repro.baselines.AllPairsLocal
    val allStats = new LocalStats
    checker.call("all local", Some(checker.truth))(AllPairsLocal.selfJoin(recs, lambda, allStats))
    m += (("all.pre", allStats.pre.toDouble, "count"), ("all.cand", allStats.cand.toDouble, "count"))

    val localOverhead = Clock.median(walks.map(_._2).toSeq) / Clock.median(plain.toSeq)
    val overhead =
      if (w.spark) sparkLayers(recs, checker, reference.keySet, m)
      else {
        m ++= sparkNames.map(n => (n, 0.0, sparkUnit(n)))
        localOverhead
      }
    m += (("trace.overhead_ratio", overhead, "ratio"))
    Result(checker.failed == 0, checker.attempted, checker.failed, m.toSeq)
  }

  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  /** Table IV counters of one join from its StatsSink and its distinct pairs. */
  private def filterCounts(prefix: String, s: LocalStats, distinct: Int): Seq[(String, Double, String)] = Seq(
    (s"$prefix.pre", s.pre.toDouble, "count"),
    (s"$prefix.cand", s.cand.toDouble, "count"),
    (s"$prefix.res", s.res.toDouble, "count"),
    (s"$prefix.cand_per_pre", ratio(s.cand, s.pre), "ratio"),
    (s"$prefix.res_per_cand", ratio(s.res, s.cand), "ratio"),
    (s"$prefix.dup_factor", ratio(s.res, distinct), "ratio"))

  val sparkNames: Seq[String] =
    Seq("broadcast_s", "run_s", "jobs", "stages", "tasks", "task_s", "max_task_s", "busy_ratio",
      "driver_gap_s", "shuffle_read_mb", "shuffle_write_mb").map("spark.cp." + _) ++
      Seq("mh", "all").flatMap(e => Seq("jobs", "task_s", "shuffle_write_mb").map(s"spark.$e." + _))

  private def sparkUnit(name: String): String =
    if (name.endsWith("_s")) "s" else if (name.endsWith("_mb")) "MB"
    else if (name.endsWith("_ratio")) "ratio" else "count"

  /** The Spark engines under a listener; returns the traced-over-untraced CP time. */
  private def sparkLayers(recs: IndexedSeq[SetRec], checker: Checker, cpReference: Set[(Long, Long)],
                          m: Metrics): Double = {
    val spark = SparkBoot.start()
    try {
      val sc = spark.sparkContext
      def cpCall() = CPSJoinSpark.selfJoin(spark, recs, lambda, params)
      // Warm-up, checked like every call.
      for (_ <- 1 to 2) checker.call("spark cp warm-up", Some(cpReference))(cpCall())
      checker.call("spark mh warm-up", None)(MinHashLSHSpark.selfJoin(spark, recs, lambda, phi, params))
      checker.call("spark all warm-up", Some(checker.truth))(AllPairsSpark.selfJoinCollect(spark, recs, lambda)._1)
      val untraced = Clock.median((1 to 2).map { _ =>
        System.gc()
        var s = 0.0
        checker.call("spark cp untraced", Some(cpReference)) { val (o, t) = Clock.time(cpCall()); s = t; o }
        s
      })

      val listener = new PhaseListener
      sc.addSparkListener(listener)
      def inGroup[A](group: String)(body: => A): A = {
        sc.setJobGroup(group, group, interruptOnCancel = false)
        try body finally sc.clearJobGroup()
      }
      System.gc()
      val (bc, broadcastS) = Clock.time(CPSJoinSpark.broadcastPayload(spark, recs, params))
      val runFrom = System.currentTimeMillis()
      var runS = 0.0
      try inGroup("cp") {
        checker.call("spark cp traced", Some(cpReference)) {
          val (o, s) = Clock.time(new CPSJoinSpark(spark, bc, lambda, params).run(0 until params.reps))
          runS = s
          o
        }
      } finally bc.destroy()
      val runTo = System.currentTimeMillis()
      inGroup("mh")(checker.call("spark mh traced", None)(MinHashLSHSpark.selfJoin(spark, recs, lambda, phi, params)))
      inGroup("all")(checker.call("spark all traced", Some(checker.truth))(
        AllPairsSpark.selfJoinCollect(spark, recs, lambda)._1))
      JoinbenchListenerBus.drain(sc)
      sc.removeSparkListener(listener)

      val cp = listener.phase("cp")
      val mb = 1e6
      m += (("spark.cp.broadcast_s", broadcastS, "s"), ("spark.cp.run_s", runS, "s"),
        ("spark.cp.jobs", cp.jobs.toDouble, "count"), ("spark.cp.stages", cp.stages.toDouble, "count"),
        ("spark.cp.tasks", cp.tasks.toDouble, "count"), ("spark.cp.task_s", cp.taskMs / 1e3, "s"),
        ("spark.cp.max_task_s", cp.maxTaskMs / 1e3, "s"),
        ("spark.cp.busy_ratio", ratio(cp.taskMs / 1e3, runS * SparkBoot.cores), "ratio"),
        ("spark.cp.driver_gap_s", (runTo - runFrom - cp.busyMs(runFrom, runTo)) / 1e3, "s"),
        ("spark.cp.shuffle_read_mb", cp.shuffleReadBytes / mb, "MB"),
        ("spark.cp.shuffle_write_mb", cp.shuffleWriteBytes / mb, "MB"))
      for (e <- Seq("mh", "all")) {
        val ph = listener.phase(e)
        m += ((s"spark.$e.jobs", ph.jobs.toDouble, "count"), (s"spark.$e.task_s", ph.taskMs / 1e3, "s"),
          (s"spark.$e.shuffle_write_mb", ph.shuffleWriteBytes / mb, "MB"))
      }
      (broadcastS + runS) / untraced
    } finally spark.stop()
  }
}
