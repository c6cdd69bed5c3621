package repro.joinbench

import org.apache.spark.sql.SparkSession

/** Host-speed normalisation of the timings.
  *
  * On a shared VM the speed of the same single-threaded call swings by up to
  * 50 % from one second to the next, with thread CPU time equal to wall time:
  * the host, not the scheduler, slows the core. A fixed kernel that calls no
  * program code is timed right before and right after every timed call; the
  * call's time is then scaled by `refSeconds` over the mean of those two kernel
  * times. On a host of the reference speed this is the wall time; on a slower
  * or faster phase of the host, call and kernel slow down or speed up together
  * and the ratio stays put.
  *
  * The local kernel uses only primitive arrays and its own code, so it shares
  * no JIT profile with the program, and it touches 8 MB at random, like the
  * joins' hash tables. Spark calls on the benchmark's input are mostly job
  * scheduling across threads, which does not follow that kernel, so a Spark
  * workload is normalised by a small fixed Spark job instead (`sparkSeconds`).
  */
object Calibration {

  /** The kernel's time on the reference host, the 4-vCPU VM the baseline ran on. */
  val refSeconds: Double = 0.05

  private val slots = 1 << 20
  private val keys = 1 << 19

  /** A fixed amount of hashing, random memory access and arithmetic; returns a checksum. */
  def kernel(): Long = {
    val table = new Array[Long](slots)
    val mask = slots - 1
    var x = 0x9E3779B97F4A7C15L
    var i = 0
    while (i < keys) {
      x = x * 6364136223846793005L + 1442695040888963407L
      val key = (x >>> 20) | 1L
      var slot = (java.lang.Long.hashCode(key * 0xBF58476D1CE4E5B9L) & mask)
      while (table(slot) != 0L && table(slot) != key) slot = (slot + 1) & mask
      table(slot) = key
      i += 1
    }
    var sum = 0L
    x = 0x9E3779B97F4A7C15L
    i = 0
    while (i < 2 * keys) {
      x = x * 6364136223846793005L + 1442695040888963407L
      var slot = (java.lang.Long.hashCode(((x >>> 20) | 1L) * 0xBF58476D1CE4E5B9L) & mask)
      while (table(slot) != 0L) { sum += java.lang.Long.bitCount(table(slot) ^ x); slot = (slot + 1) & mask }
      i += 1
    }
    sum
  }

  @volatile private var sink = 0L

  /** Seconds of one kernel run, after a full GC. */
  def seconds(): Double = {
    System.gc()
    val (sum, s) = Clock.time(kernel())
    sink += sum
    s
  }

  /** The Spark kernel's time on the reference host. */
  val sparkRefSeconds: Double = 0.085

  /** Seconds of the Spark kernel, after a full GC: a fixed job of two stages with a
    * shuffle over generated numbers, which calls no program code.
    */
  def sparkSeconds(spark: SparkSession): Double = {
    System.gc()
    val (sum, s) = Clock.time {
      spark.sparkContext.parallelize(0 until 100000, SparkBoot.cores)
        .map(i => (i & 63, i.toLong)).reduceByKey(_ + _, SparkBoot.cores).values.sum()
    }
    sink += sum.toLong
    s
  }
}

/** Normalises the timings of one run by a kernel timed right around each of them
  * (see `Calibration`). Call `begin` right before a sequence of timed stretches and
  * `normalise` right after each; the kernel runs between them.
  */
final class HostSpeed(kernelSeconds: () => Double, refSeconds: Double) {
  private var before = 0.0

  /** Runs the kernel until the JIT has compiled it. */
  def warmUp(): Unit = for (_ <- 1 to 10) kernelSeconds()

  def begin(): Unit = before = kernelSeconds()

  /** `seconds` of work that has just ended, scaled by the kernel runs right around it. */
  def normalise(seconds: Double): Double = {
    val after = kernelSeconds()
    val s = seconds * refSeconds / ((before + after) / 2)
    before = after
    s
  }
}
