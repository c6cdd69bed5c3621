package repro.joinbench

import org.apache.spark.sql.SparkSession
import repro.core.{CPSParams, SetRec}
import repro.data.Datasets

/** Algorithm settings shared by every workload: the library defaults. */
object Fixed {
  val params: CPSParams = CPSParams() // t = 128, ℓ = 8, 10 repetitions, seed 42
  val lambda: Double = 0.5
  val phi: Double = 0.9
}

/** One benchmark workload: a generated dataset, the engines that join it, and the
  * options of the JVMs that time it.
  */
final case class Workload(name: String, dataset: String, scale: Double, spark: Boolean,
                          jvmOptions: Seq[String] = Nil) {
  /** The program sees only these generated records; `seed` picks the instance. */
  def generate(seed: Long): IndexedSeq[SetRec] = Datasets.byName(dataset).gen(scale, seed)

  /** The JVMs of an untraced run: the engine families each one times, and its share of
    * the run's seconds. A local workload times each family in its own JVM, so one
    * family's calls do not shape the JIT profile of code another shares (the MH and CP
    * verifiers, for one). CP gets the largest share: it times two calls of ≈ 1 s each.
    * A Spark workload times all families in one JVM, since a cold SparkSession costs
    * about 8 s.
    */
  def jvms: Seq[(Seq[String], Double)] =
    if (spark) Seq((TimedRun.families.map(_._1), 1.0))
    else Seq((Seq("cp"), 0.6), (Seq("mh"), 0.2), (Seq("all"), 0.2))

  /** What `run.py` needs to start this workload's JVMs, as one JSON object. */
  def planJson: String = {
    def list(xs: Seq[String]) = xs.map(x => "\"" + x + "\"").mkString("[", ", ", "]")
    val jvmList = jvms.map { case (families, share) => s"""{"families": ${list(families)}, "share": $share}""" }
    s"""{"jvm_options": ${list(jvmOptions)}, "jvms": ${jvmList.mkString("[", ", ", "]")}}"""
  }
}

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("aol-local", "AOL", 10.0, spark = false),
    // Under the optimising JIT the Spark driver keeps getting faster for dozens of calls,
    // longer than a run can warm up; with the first-tier JIT its timings settle after
    // one call. This holds for the executor-side join code too: compare the local
    // layers' speed on aol-local, and Spark's job overhead here.
    Workload("aol-spark", "AOL", 1.0, spark = true, jvmOptions = Seq("-XX:TieredStopAtLevel=1")),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")})"))
}

/** Spark settings pinned by the benchmark rather than taken from the environment. */
object SparkBoot {
  /** Worker threads: at most 4, never more than the machine has. */
  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors())

  def start(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("joinbench")
      .config("spark.sql.shuffle.partitions", cores.toLong)
      .config("spark.default.parallelism", cores.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.sql.adaptive.enabled", true)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", sys.props.getOrElse("java.io.tmpdir", "."))
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }
}

/** Wall-clock helpers. */
object Clock {
  private var last = System.nanoTime()

  /** Logs the seconds since the previous mark, so a run shows where its time went. */
  def mark(phase: String): Unit = {
    val now = System.nanoTime()
    System.err.println(f"[joinbench] phase $phase: ${(now - last) / 1e9}%.1f s")
    last = now
  }

  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }
}
