package repro.core

/** CPSJoin parameters (paper Table III).
  *
  * @param t       number of MinHash functions in the embedding (final: 128)
  * @param ell     sketch length in 64-bit words (final: 8)
  * @param limit   brute-force bucket-size limit (final: 250)
  * @param eps     brute-force aggressiveness ε (final: 0.1)
  * @param delta   sketch false-negative probability δ (final: 0.05)
  * @param reps    independent repetitions of the join (paper §V-A5: 10)
  * @param seed    base seed: the MinHash and sketch functions derive from it,
  *                 CPSJoin's repetition r grows its tree from
  *                 `CPSJoinLocal.rootSeed(p, r)`, and MinHash LSH's repetition
  *                 r samples its coordinates with `MinHashLSHLocal.repCoordinates`
  * @param maxDepth safety cap on the Chosen Path tree depth (paper: depth is
  *                 O(log n / ε) w.h.p.; buckets still alive at the cap are
  *                 brute-forced so correctness is unaffected)
  */
final case class CPSParams(
    t: Int = 128,
    ell: Int = 8,
    limit: Int = 250,
    eps: Double = 0.1,
    delta: Double = 0.05,
    reps: Int = 10,
    seed: Long = 42L,
    maxDepth: Int = 64,
) {
  require(t > 0 && ell >= 1 && limit >= 1 && eps >= 0 && delta > 0 && delta < 1 && reps >= 1)
  def sketchBits: Int = 64 * ell
}

/** Candidate-pair accounting with Table IV semantics.
  *
  * - preCandidates: pairs considered by BRUTEFORCEPAIRS / BRUTEFORCEPOINT
  *   (CPSJoin) or inverted-list entries touched after the size check
  *   (AllPairs).
  * - candidates: pairs passed to exact similarity verification (after size
  *   and sketch checks for CPSJoin; after dedup for AllPairs).
  * - results: verified pairs reported (possibly with duplicates for CPSJoin;
  *   the join output itself is deduplicated, the counter is raw as in §VI-A4).
  */
trait StatsSink extends Serializable {
  def preCandidates(n: Long): Unit
  def candidates(n: Long): Unit
  def results(n: Long): Unit
}

/** Driver-local counters. */
final class LocalStats extends StatsSink {
  var pre: Long = 0L
  var cand: Long = 0L
  var res: Long = 0L
  override def preCandidates(n: Long): Unit = pre += n
  override def candidates(n: Long): Unit = cand += n
  override def results(n: Long): Unit = res += n
  override def toString = s"pre=$pre cand=$cand res=$res"
}

/** Spark-side counters backed by accumulators. */
final class AccumStats(
    pre: org.apache.spark.util.LongAccumulator,
    cand: org.apache.spark.util.LongAccumulator,
    res: org.apache.spark.util.LongAccumulator,
) extends StatsSink {
  override def preCandidates(n: Long): Unit = pre.add(n)
  override def candidates(n: Long): Unit = cand.add(n)
  override def results(n: Long): Unit = res.add(n)
}

object AccumStats {
  /** Register a fresh accumulator triple on the session. */
  def create(spark: org.apache.spark.sql.SparkSession, name: String): (AccumStats, () => (Long, Long, Long)) = {
    val p = spark.sparkContext.longAccumulator(s"$name.preCandidates")
    val c = spark.sparkContext.longAccumulator(s"$name.candidates")
    val r = spark.sparkContext.longAccumulator(s"$name.results")
    (new AccumStats(p, c, r), () => (p.value, c.value, r.value))
  }
}

/** A "no-op" sink for runs where counting is not needed. */
object NullStats extends StatsSink {
  override def preCandidates(n: Long): Unit = ()
  override def candidates(n: Long): Unit = ()
  override def results(n: Long): Unit = ()
}
