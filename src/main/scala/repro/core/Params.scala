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
  * - pre: pairs considered by BRUTEFORCEPAIRS / BRUTEFORCEPOINT (CPSJoin,
  *   MinHash LSH), including the size-rejected ones, which the size-sorted
  *   kernels count without touching them, or inverted-list entries touched
  *   after the size check (AllPairs).
  * - cand: pairs passed to exact similarity verification (after size and
  *   sketch checks for CPSJoin; after dedup for AllPairs).
  * - res: verified pairs reported (possibly with duplicates for CPSJoin;
  *   the join output itself is deduplicated, the counter is raw as in §VI-A4).
  *
  * Not `Serializable` on purpose: a Spark task counts into its own instance
  * and returns the three counts with its pairs, so a closure that captures a
  * driver-side counter fails to serialize instead of counting into a copy
  * that is thrown away.
  */
final class LocalStats {
  var pre: Long = 0L
  var cand: Long = 0L
  var res: Long = 0L
  override def toString = s"pre=$pre cand=$cand res=$res"
}
