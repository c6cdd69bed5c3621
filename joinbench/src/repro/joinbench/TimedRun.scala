package repro.joinbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.baselines.AllPairsSpark
import repro.core.SetRec
import scala.collection.mutable

/** One benchmark result: the contract's last stdout line. */
final case class Result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]) {
  def json: String = {
    def num(v: Double): String =
      if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString else v.toString
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

/** Untraced run: the end-to-end metrics of some engine families.
  *
  * Every timing is normalised to the reference host speed by a kernel timed
  * right around it (see `Calibration`): a memory-bound loop on a local workload,
  * a small Spark job on a Spark workload.
  * Set-up (input generation, plus SparkSession start and a first job on a Spark
  * workload) is warmed up and then timed in batches of at least `batchSeconds`;
  * `setup_s` is the median batch's time per set-up. The families' join calls then
  * run in rounds, each call after a full GC; warm-up rounds are checked but not
  * timed, and timed rounds continue until `seconds` have passed and at least
  * `minRounds` are done. Each timing is the median of its calls.
  */
object TimedRun {
  import Fixed._

  /** The timed calls of each engine family. */
  val families: Seq[(String, Seq[String])] =
    Seq("cp" -> Seq("cp_e2e_s", "cp_join_s"), "mh" -> Seq("mh_e2e_s"), "all" -> Seq("all_s"))
  val minRounds = 3
  val maxRounds = 40
  val callSeconds = 1.0
  val maxPerRound = 5
  val warmupRounds = 1

  val setupBatches = 3
  val batchSeconds = 1.0

  /** Times the calls of the given engine families (see `families`) in this process. */
  def apply(w: Workload, seed: Long, seconds: Double, only: Set[String]): Result = {
    val ops = families.collect { case (f, calls) if only(f) => calls }.flatten
    require(ops.nonEmpty, s"no engine family among ${only.mkString(",")}")
    var spark: SparkSession = null
    val host =
      if (w.spark) new HostSpeed(() => Calibration.sparkSeconds(spark), Calibration.sparkRefSeconds)
      else new HostSpeed(() => Calibration.seconds(), Calibration.refSeconds)
    if (!w.spark) host.warmUp()
    Clock.mark("calibration warm-up")
    // Live heap that the input, the embedded payload and one CP output take, read before
    // Spark starts, the checker's truth exists and any call is timed. It uses the local
    // engine on every workload: on a Spark workload, Spark's own heap moves by more
    // between two readings than the ≈ 2 MB these take.
    val heap = if (!ops.contains("cp_join_s")) Nil else {
      val without = usedHeapMb()
      val held = heldHeapMb(w, seed)
      System.err.println(f"[joinbench] used heap: $held%.2f MB with the input, payload and output, $without%.2f MB without")
      Seq(("retained_heap_mb", held - without, "MB"))
    }
    Clock.mark("heap")
    var recs: IndexedSeq[SetRec] = null
    def setUp(): Unit = {
      if (spark != null) spark.stop()
      if (w.spark) spark = SparkBoot.start()
      recs = w.generate(seed)
      if (w.spark) AllPairsSpark.toDF(spark, recs).count()
    }
    // setup_s comes from the process that times CP; the others set up once.
    val setup = mutable.ArrayBuffer.empty[Double]
    val setupRaw = mutable.ArrayBuffer.empty[Double]
    setUp()
    if (w.spark) host.warmUp()
    if (only("cp")) {
      batch(setUp()) // warm-up
      host.begin()
      for (_ <- 1 to setupBatches) {
        val s = batch(setUp())
        setupRaw += s
        setup += host.normalise(s)
      }
    }
    Clock.mark("set-up")
    try run(w, recs, spark, setup.toSeq, setupRaw.toSeq, heap, seconds, ops, host)
    finally if (spark != null) spark.stop()
  }

  /** Seconds per call of `body`, called until `batchSeconds` have passed. */
  private def batch(body: => Unit): Double = {
    val t0 = System.nanoTime()
    var n = 0
    while (n == 0 || System.nanoTime() - t0 < batchSeconds * 1e9) { body; n += 1 }
    (System.nanoTime() - t0) / 1e9 / n
  }

  private def run(w: Workload, recs: IndexedSeq[SetRec], spark: SparkSession, setup: Seq[Double],
                  setupRaw: Seq[Double], heap: Seq[(String, Double, String)], seconds: Double,
                  ops: Seq[String], host: HostSpeed): Result = {
    val engines: Engines = if (w.spark) new SparkEngines(spark, recs) else new LocalEngines(recs)
    try {
      // The CP reference pairs come from the local engine, on the local workloads in `engines` itself.
      lazy val cpOutput = (if (w.spark) new LocalEngines(recs) else engines).cpJoin()
      lazy val cpReference = cpOutput.keySet
      val checker = new Checker(recs, lambda)
      Clock.mark("truth")

      val calls: Map[String, () => Map[(Long, Long), Double]] = Map(
        "cp_e2e_s" -> engines.cpE2e _, "cp_join_s" -> engines.cpJoin _,
        "mh_e2e_s" -> engines.mhE2e _, "all_s" -> engines.all _)
      val expected: Map[String, Option[Set[(Long, Long)]]] = Map(
        "cp_e2e_s" -> Some(cpReference), "cp_join_s" -> Some(cpReference),
        "mh_e2e_s" -> None, "all_s" -> Some(checker.truth))
      val samples = ops.map(_ -> mutable.ArrayBuffer.empty[Double]).toMap
      val rawSamples = ops.map(_ -> mutable.ArrayBuffer.empty[Double]).toMap
      var lastOut = Map.empty[String, Map[(Long, Long), Double]]

      // Calls per round: one for slow calls, more for calls under callSeconds, so every
      // timing gets enough samples within the run. Each call sits between two kernel runs.
      val perRound = mutable.Map(ops.map(_ -> 1): _*)
      host.begin()
      def round(timed: Boolean): Unit = for (op <- ops; _ <- 1 to perRound(op)) {
        System.gc()
        var s = 0.0
        val out = checker.call(op, expected(op)) {
          val (out, t) = Clock.time(calls(op)())
          s = t
          out
        }
        val norm = host.normalise(s)
        if (timed) { samples(op) += norm; rawSamples(op) += s }
        else perRound(op) = math.max(1, math.min(maxPerRound, (callSeconds / s).toInt))
        System.err.println(f"[joinbench] $op ${if (timed) "" else "(warm-up) "}$s%.3f s, normalised $norm%.3f s")
        out.foreach(o => lastOut += op -> o)
      }

      for (_ <- 1 to warmupRounds) round(timed = false)
      Clock.mark("warm-up")
      val t0 = System.nanoTime()
      var rounds = 0
      while (rounds < minRounds || ((System.nanoTime() - t0) / 1e9 < seconds && rounds < maxRounds)) {
        round(timed = true)
        rounds += 1
      }

      Clock.mark("timed rounds")
      val recalls = Seq("cp_recall" -> "cp_join_s", "mh_recall" -> "mh_e2e_s").collect {
        case (name, op) if ops.contains(op) => (name, checker.recall(lastOut.getOrElse(op, Map.empty)), "ratio")
      }

      System.err.println(f"[joinbench] ${w.name}: ${recs.length} records, ${checker.truth.size} true pairs, " +
        f"cores ${SparkBoot.cores}, $rounds timed rounds after $warmupRounds warm-up")
      def show(xs: Seq[Double]) = xs.map(s => f"$s%.4f").mkString(" ")
      val timed = (if (setup.isEmpty) Nil else Seq(("setup_s", setup, setupRaw))) ++
        ops.map(op => (op, samples(op).toSeq, rawSamples(op).toSeq))
      for ((name, xs, raw) <- timed) {
        System.err.println(s"[joinbench] $name: ${xs.length} samples: ${show(xs)}")
        System.err.println(s"[joinbench] $name wall: ${show(raw)} (median ${Clock.median(raw)})")
      }

      val metrics = timed.map { case (name, xs, _) => (name, Clock.median(xs), "s") } ++ recalls ++
        Seq(("ok_rate", checker.okRate, "ratio")) ++ heap
      Result(checker.failed == 0, checker.attempted, checker.failed, metrics)
    } finally engines.close()
  }

  /** Used heap while the input, its embedded payload and one CP output of the local
    * engine are referenced.
    */
  private def heldHeapMb(w: Workload, seed: Long): Double = {
    val recs = w.generate(seed)
    val engines = new LocalEngines(recs)
    val held = (recs, engines.payload, engines.cpJoin())
    val mb = usedHeapMb()
    java.lang.ref.Reference.reachabilityFence(held)
    mb
  }

  /** Used heap after full GCs, once two readings 0.1 s apart agree within 0.1 MB: some
    * objects are freed only after a cleaner thread has run after a GC.
    */
  def usedHeapMb(): Double = {
    val mx = ManagementFactory.getMemoryMXBean
    def read(): Double = { System.gc(); mx.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0) }
    var prev = read()
    var cur = prev
    var n = 0
    while ((n == 0 || math.abs(cur - prev) > 0.1) && n < 20) {
      Thread.sleep(100)
      prev = cur
      cur = read()
      n += 1
    }
    cur
  }
}
