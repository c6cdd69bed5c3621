package repro.joinbench

/** Benchmark entry point.
  *
  * {{{
  * Main --workload <aol-local|aol-spark> [--seed 7] [--seconds 10] [--trace 0|1]
  *      [--families cp,mh,all]
  * Main --workload <name> --plan 1
  * }}}
  *
  * Prints progress on stderr and, as the last line of stdout, one JSON object:
  * `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
  * end-to-end metrics, `--trace 1` the per-layer ones. `--families` limits an
  * untraced run to some engine families, so each can be timed in its own JVM.
  * `--plan 1` prints, instead, the JVM options, and the engine families and share
  * of `--seconds` of each JVM that `run.py` starts for the workload
  * (`Workload.planJson`).
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val unknown = opts.keySet -- Set("workload", "seed", "seconds", "trace", "families", "plan")
    if (args.length % 2 != 0 || unknown.nonEmpty || !opts.contains("workload")) {
      System.err.println("usage: --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--families cp,mh,all] [--plan 1]")
      System.exit(2)
    }
    val workload = Workload.byName(opts("workload"))
    if (opts.get("plan").contains("1")) {
      println(workload.planJson)
      return
    }
    val seed = opts.getOrElse("seed", "7").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val families = opts.getOrElse("families", "cp,mh,all").split(",").toSet
    val result =
      try opts.getOrElse("trace", "0") match {
        case "0" => TimedRun(workload, seed, seconds, families)
        case "1" => TracedRun(workload, seed)
        case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          System.exit(1) // Spark's non-daemon threads would keep the JVM alive
          throw e
      }
    System.err.println(s"[joinbench] workload ${workload.name}, seed $seed")
    println(result.json)
    System.out.flush()
    System.exit(0)
  }
}
