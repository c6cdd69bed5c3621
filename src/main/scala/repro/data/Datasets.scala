package repro.data

import repro.core.SetRec
import repro.util.Hashing
import java.util.SplittableRandom
import scala.collection.mutable

/** Synthetic generators for the paper's 14 evaluation datasets (Table I).
  *
  * TOKENS10K/15K/20K and UNIFORM are generated exactly by the paper's own
  * construction (scaled in n). The 10 real-world datasets from Mann et al.
  * are emulated by seeded generators matching each dataset's Table I *shape*
  * statistics — average set size and sets-per-token ratio (with the universe
  * floored at 5× the average set size so background similarity stays well
  * below the join thresholds) — plus a token-frequency skew (Zipf exponent)
  * chosen per dataset archetype and a small planted near-duplicate fraction
  * so every threshold has join results. See DESIGN.md (substitutions).
  *
  * All generators are deterministic in (spec, seed). Records have ≥ 2
  * distinct tokens and duplicate records are removed, mirroring the paper's
  * dataset preparation.
  */
object Datasets {

  /** One evaluation dataset: paper statistics + reproduction-scale generator. */
  final case class DatasetDef(
      name: String,
      paperSetsMillions: Double,
      paperAvgSize: Double,
      paperSetsPerToken: Double,
      defaultN: Int,
      generate: (Int, Long) => IndexedSeq[SetRec], // (n, seed) => records
  ) {
    def gen(scale: Double = 1.0, seed: Long = 7L): IndexedSeq[SetRec] =
      generate(math.max(32, (defaultN * scale).toInt), seed)
  }

  // ---------------------------------------------------------------- helpers

  /** Cumulative Zipf(alpha) weights over ranks 1..d (rank 0 most frequent). */
  private def zipfCdf(d: Int, alpha: Double): Array[Double] = {
    val cdf = new Array[Double](d)
    var acc = 0.0
    var k = 0
    while (k < d) { acc += 1.0 / math.pow(k + 1.0, alpha); cdf(k) = acc; k += 1 }
    var i = 0
    while (i < d) { cdf(i) /= acc; i += 1 }
    cdf
  }

  private def sampleZipf(cdf: Array[Double], rng: SplittableRandom): Int = {
    val u = rng.nextDouble()
    var lo = 0; var hi = cdf.length - 1
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (cdf(mid) < u) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Lognormal set size around `avg` (σ controls spread), minimum 2. */
  private def sampleSize(avg: Double, sigma: Double, rng: SplittableRandom): Int = {
    val z = rng.nextGaussian()
    math.max(2, math.round(avg * math.exp(sigma * z - sigma * sigma / 2)).toInt)
  }

  private def sampleSet(size: Int, cdf: Array[Double], rng: SplittableRandom): Array[Int] = {
    val d = cdf.length
    val s = mutable.LinkedHashSet.empty[Int]
    var attempts = 0
    while (s.size < math.min(size, d) && attempts < size * 50) {
      s += sampleZipf(cdf, rng)
      attempts += 1
    }
    // extremely skewed universes may stall rejection sampling; fill uniformly
    while (s.size < math.min(size, d)) s += rng.nextInt(d)
    s.toArray.sorted
  }

  /** Emulated real-world dataset: Zipf token skew + planted near-duplicates. */
  def zipfDataset(n: Int, avgSize: Double, d: Int, alpha: Double,
                  sizeSigma: Double = 0.5, dupFraction: Double = 0.02,
                  seed: Long = 7L): IndexedSeq[SetRec] = {
    require(n > 0 && d >= 2 * avgSize.toInt.max(2))
    val rng = new SplittableRandom(Hashing.mix64(seed))
    val cdf = zipfCdf(d, alpha)
    val nDup = math.max(0, (n * dupFraction).toInt)
    val base = mutable.ArrayBuffer.empty[Array[Int]]
    val seen = mutable.HashSet.empty[Long]
    while (base.length < n - nDup) {
      val s = sampleSet(sampleSize(avgSize, sizeSigma, rng), cdf, rng)
      val h = s.foldLeft(0xcbf29ce484222325L)((acc, t) => Hashing.combine(acc, t.toLong))
      if (s.length >= 2 && seen.add(h)) base += s
    }
    // Planted near-duplicates: mutate a random base set with per-token
    // replacement probability m ~ U[0.02, 0.30] → J ≈ (1−m)/(1+m) ∈ [0.54, 1).
    var di = 0
    while (di < nDup) {
      val src = base(rng.nextInt(n - nDup))
      val m = 0.02 + 0.28 * rng.nextDouble()
      val s = mutable.LinkedHashSet.empty[Int]
      for (tok <- src) {
        if (rng.nextDouble() < m) s += sampleZipf(cdf, rng) else s += tok
      }
      if (s.size >= 2) { base += s.toArray.sorted; di += 1 } else di += 1
    }
    base.iterator.zipWithIndex.map { case (toks, i) => SetRec(i.toLong, toks) }.toIndexedSeq
  }

  /** UNIFORM005: tokens sampled uniformly from a small universe; set sizes
    * uniform in [2, 2·avgSize−2] (mean avgSize). The size spread matters:
    * with all sets at exactly avgSize = 10 the probability of a random pair
    * reaching J ≥ 0.5 is ~1e-7 and the join would be empty at reproduction
    * scale, whereas Mann et al.'s UNIFORM (which the paper reports with
    * 2.6e5 results at λ = 0.5) gets its results from small-set collisions.
    */
  def uniformDataset(n: Int, setSize: Int, d: Int, seed: Long = 7L): IndexedSeq[SetRec] = {
    val rng = new SplittableRandom(Hashing.mix64(seed ^ 0xfeedL))
    (0 until n).map { i =>
      val sz = 2 + rng.nextInt(math.max(1, 2 * setSize - 3)) // uniform 2..2·avg−2
      val s = mutable.LinkedHashSet.empty[Int]
      while (s.size < math.min(sz, d)) s += rng.nextInt(d)
      SetRec(i.toLong, s.toArray.sorted)
    }
  }

  /** TOKENS dataset (paper §VI-1): universe of d = 1000 tokens, each token
    * used by at most `cap` sets; `plantedPerLambda` sets of size
    * (2λ′/(1+λ′))·d planted for each λ′ ∈ {0.95, 0.85, 0.75, 0.65, 0.55}
    * (so any two same-group sets have expected Jaccard λ′); remaining sets
    * have size (2·0.2/1.2)·d, i.e. expected pairwise Jaccard 0.2.
    */
  def tokensDataset(n: Int, cap: Int, plantedPerLambda: Int, d: Int = 1000,
                    seed: Long = 7L): IndexedSeq[SetRec] = {
    val rng = new SplittableRandom(Hashing.mix64(seed ^ 0x70c3L))
    val counts = new Array[Int](d)
    val available = mutable.ArrayBuffer.tabulate(d)(identity)

    def sampleCapped(size: Int): Array[Int] = {
      val s = mutable.LinkedHashSet.empty[Int]
      var stall = 0
      while (s.size < size && available.nonEmpty && stall < size * 100) {
        val pos = rng.nextInt(available.length)
        val tok = available(pos)
        if (s.add(tok)) {
          counts(tok) += 1
          if (counts(tok) >= cap) {
            available(pos) = available.last
            available.remove(available.length - 1)
          }
          stall = 0
        } else stall += 1
      }
      while (s.size < size) s += rng.nextInt(d) // soft cap at the tail
      s.toArray.sorted
    }

    val lambdas = Array(0.95, 0.85, 0.75, 0.65, 0.55)
    val out = mutable.ArrayBuffer.empty[Array[Int]]
    for (lp <- lambdas; _ <- 0 until plantedPerLambda)
      out += sampleCapped(math.round(2 * lp / (1 + lp) * d).toInt)
    val restSize = math.round(2 * 0.2 / 1.2 * d).toInt // 333 for d = 1000
    while (out.length < n) out += sampleCapped(restSize)
    out.iterator.zipWithIndex.map { case (toks, i) => SetRec(i.toLong, toks) }.toIndexedSeq
  }

  // ------------------------------------------------------------- registry

  private def real(name: String, mSets: Double, avg: Double, ratio: Double,
                   n: Int, alpha: Double, sigma: Double = 0.5,
                   dupFraction: Double = 0.02): DatasetDef =
    DatasetDef(name, mSets, avg, ratio, n,
      (nn, seed) => {
        val d = math.max((5 * avg).toInt, math.round(nn * avg / ratio).toInt).max(16)
        zipfDataset(nn, avg, d, alpha, sigma, dupFraction, seed)
      })

  /** All 14 evaluation datasets at reproduction scale (paper Table I order).
    * Default n is chosen so the full Table II sweep (14 datasets × 5
    * thresholds × 3 algorithms, approximate methods repeated to 90 % recall)
    * completes in tens of minutes on a single node; REPRO_SCALE scales it.
    */
  val all: IndexedSeq[DatasetDef] = IndexedSeq(
    real("AOL",      7.35, 3.8,   18.9,   n = 2000, alpha = 1.0),
    real("BMS-POS",  0.32, 9.3,   1797.9, n = 2000, alpha = 0.5),
    real("DBLP",     0.10, 82.7,  1204.4, n = 2000, alpha = 0.6),
    real("ENRON",    0.25, 135.3, 29.8,   n = 2000, alpha = 0.9),
    real("FLICKR",   1.14, 10.8,  16.3,   n = 2000, alpha = 1.0),
    real("KOSARAK",  0.59, 12.2,  176.3,  n = 2000, alpha = 0.9),
    real("LIVEJ",    0.30, 37.5,  15.0,   n = 2000, alpha = 0.9),
    real("NETFLIX",  0.48, 209.8, 5654.4, n = 2000, alpha = 0.3),
    real("ORKUT",    2.68, 122.2, 37.5,   n = 2000, alpha = 0.8),
    real("SPOTIFY",  0.36, 15.3,  7.4,    n = 2000, alpha = 0.7),
    DatasetDef("TOKENS10K", 0.03, 339.4, 10000.0, 1200,
      (n, seed) => tokensDataset(n, cap = n / 3, plantedPerLambda = math.max(4, n / 120), seed = seed)),
    DatasetDef("TOKENS15K", 0.04, 337.5, 15000.0, 1600,
      (n, seed) => tokensDataset(n, cap = (n * 3) / 8, plantedPerLambda = math.max(4, n / 160), seed = seed)),
    DatasetDef("TOKENS20K", 0.06, 335.7, 20000.0, 2400,
      (n, seed) => tokensDataset(n, cap = n / 3, plantedPerLambda = math.max(4, n / 240), seed = seed)),
    DatasetDef("UNIFORM005", 0.10, 10.0, 4783.7, 2000,
      (n, seed) => uniformDataset(n, setSize = 10, d = 209, seed = seed)),
  )

  def byName(name: String): DatasetDef =
    all.find(_.name.equalsIgnoreCase(name))
      .getOrElse(throw new NoSuchElementException(s"unknown dataset $name"))

  /** Observed Table I statistics of a generated collection. */
  def stats(recs: IndexedSeq[SetRec]): (Int, Double, Double) = {
    val n = recs.length
    val totalTokens = recs.iterator.map(_.tokens.length.toLong).sum
    val distinct = recs.iterator.flatMap(_.tokens).toSet.size
    (n, totalTokens.toDouble / n, totalTokens.toDouble / distinct)
  }
}
