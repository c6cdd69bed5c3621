package repro.baselines

import repro.core._
import repro.util.Hashing
import java.util.SplittableRandom
import scala.collection.mutable

/** MinHash LSH similarity self-join (paper Algorithm 3 / §V-B).
  *
  * Each repetition buckets records on k concatenated MinHash values (k
  * coordinates of the precomputed t-coordinate minhash vector, sampled per
  * repetition) and brute-forces every bucket of ≥ 2 records with the same
  * sketch-filtered verifier as CPSJoin. A bucket is an exact k-tuple group:
  * the records are refined once per coordinate through
  * `CPSJoinLocal.groups`, the routine the Chosen Path split uses (a stable
  * radix sort of the minhashes for large groups, so the refinement of all n
  * records is linear per coordinate). The
  * parameter k is chosen per dataset/threshold to minimize the estimated
  * total cost L(k) · (bucket work + hashing work) with
  * L(k) = ln(1/(1−φ)) / λ^k.
  */
object MinHashLSHLocal {

  /** Coordinates used by repetition `rep` for key length `k` (distinct,
    * pseudorandomly sampled from [t] by the repetition seed). The draws do
    * not depend on k, so the coordinates at k are a prefix of those at k + 1.
    */
  def repCoordinates(t: Int, k: Int, seed: Long, rep: Int): Array[Int] = {
    val rng = new SplittableRandom(Hashing.mix64(seed ^ (0x51ab0e * (rep + 7)).toLong))
    val picked = mutable.LinkedHashSet.empty[Int]
    while (picked.size < math.min(k, t)) picked += rng.nextInt(t)
    picked.toArray
  }

  /** The buckets of ≥ 2 records of repetition `rep` at key length k, members
    * in input order: the records with equal minhashes at every one of the
    * repetition's coordinates. Both engines and the cost estimate bucket
    * through here.
    */
  def buckets(recs: scala.collection.IndexedSeq[EmbeddedRec], k: Int, rep: Int,
              p: CPSParams): Iterator[scala.collection.IndexedSeq[EmbeddedRec]] =
    repCoordinates(p.t, k, p.seed, rep).foldLeft(Seq(recs))(refine).iterator

  /** `groups` refined by one more coordinate `c`. */
  private def refine(groups: Seq[scala.collection.IndexedSeq[EmbeddedRec]],
                     c: Int): Seq[scala.collection.IndexedSeq[EmbeddedRec]] =
    groups.flatMap(CPSJoinLocal.groups(_, c))

  /** Estimated cost of one repetition with these buckets over n records:
    * number of in-bucket pairs (similarity estimations) plus n (splitting work).
    */
  private def cost(buckets: IterableOnce[scala.collection.IndexedSeq[EmbeddedRec]], n: Int): Double =
    buckets.iterator.map(b => b.length * (b.length - 1L) / 2.0).sum + n.toDouble

  /** Number of repetitions for recall φ at key length k (worst case at J = λ). */
  def repetitionsFor(phi: Double, lambda: Double, k: Int): Int =
    math.max(1, math.ceil(math.log(1.0 / (1.0 - phi)) / math.pow(lambda, k)).toInt)

  /** Choose k ∈ {2..10}, capped at the minhash length t, minimizing estimated
    * total join cost (paper §V-B); the first minimum wins. An empty input has
    * no buckets at any k; it gets 2. Since repetition −1's coordinates at k
    * are a prefix of those at k + 1, the records are refined once, one
    * coordinate at a time, and each k's cost is read off the running
    * buckets.
    */
  def chooseK(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, phi: Double = 0.9,
              seed: Long = 42L): Int =
    if (recs.isEmpty) 2
    else {
      val t = recs.head.mh.length
      val coords = repCoordinates(t, math.min(10, t), seed, rep = -1)
      val levels = coords.scanLeft(Seq(recs))(refine)
      (math.min(2, t) to coords.length).minBy(k => repetitionsFor(phi, lambda, k) * cost(levels(k), recs.length))
    }

  /** One repetition: brute-force each of its buckets. */
  def runRep(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, k: Int, rep: Int,
             p: CPSParams, stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit = {
    val maxD = Verification.maxDistance(lambda, p)
    for (bucket <- buckets(recs, k, rep, p))
      Verification.bruteForcePairs(bucket, lambda, maxD, stats, emit)
  }

  /** Repetitions `reps` at key length k; returns deduplicated verified pairs. */
  def run(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, k: Int, reps: Seq[Int],
          p: CPSParams, stats: LocalStats): Map[(Long, Long), Double] =
    Verification.dedup(emit => reps.foreach(r => runRep(recs, lambda, k, r, p, stats, emit)))

  /** Full self-join at recall target φ with the worst-case repetition count
    * (benchmarks instead repeat until measured recall ≥ φ, as in the paper).
    */
  def selfJoin(recs: scala.collection.IndexedSeq[EmbeddedRec], lambda: Double, phi: Double = 0.9,
               p: CPSParams = CPSParams(), stats: LocalStats = new LocalStats): Map[(Long, Long), Double] = {
    val k = chooseK(recs, lambda, phi, p.seed)
    run(recs, lambda, k, 0 until repetitionsFor(phi, lambda, k), p, stats)
  }
}
