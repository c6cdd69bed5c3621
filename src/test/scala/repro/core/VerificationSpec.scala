package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import java.util.SplittableRandom
import scala.collection.mutable

class VerificationSpec extends AnyFunSuite {

  private val p = CPSParams(t = 16, ell = 2, seed = 3)
  private val hasher = new MinHasher(p.t, p.ell, p.seed)
  private def emb(recs: Seq[SetRec]) = EmbeddedRec.embedAll(recs.toIndexedSeq, hasher).toIndexedSeq
  private val noSketch = Sketch.maxDistance(0.0, 0) // sketchBits = 0: the sketch check is off

  /** Size compatibility: can J(x,y) ≥ λ hold given only the set sizes? The
    * per-pair reference of the kernels' size window.
    */
  private def sizeCompatible(sx: Int, sy: Int, lambda: Double): Boolean = {
    val lo = math.min(sx, sy).toDouble
    val hi = math.max(sx, sy).toDouble
    lo >= lambda * hi
  }

  /** The kernels' per-pair reference: one candidate pair end to end. Returns
    * the exact similarity if the pair is a result (J ≥ λ), NaN otherwise.
    * Updates `stats`: the pair is counted as a pre-candidate; pairs passing
    * size+sketch checks are counted as candidates; verified pairs as results.
    * `sketchBits = 0` switches the sketch check off.
    */
  private def verify(x: EmbeddedRec, y: EmbeddedRec, lambda: Double, lambdaHat: Double,
                     sketchBits: Int, stats: LocalStats): Double = {
    stats.pre += 1
    if (!sizeCompatible(x.tokens.length, y.tokens.length, lambda)) return Double.NaN
    if (sketchBits > 0 && Sketch.estimate(x.sketch, y.sketch, sketchBits) < lambdaHat) return Double.NaN
    stats.cand += 1
    val sim = Jaccard.similarity(x.tokens, y.tokens)
    if (sim >= lambda) { stats.res += 1; sim } else Double.NaN
  }

  /** BRUTEFORCEPOINT of `x` against `bucket` through the production point
    * row, on the size-sorted view `bruteForceStep` builds of its survivors.
    */
  private def bruteForcePoint(x: EmbeddedRec, bucket: IndexedSeq[EmbeddedRec], lambda: Double, maxD: Int,
                              stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit =
    Verification.bruteForcePoint(x, Verification.bySize(bucket), lambda, maxD, stats, emit)

  test("sizeCompatible matches the necessary size condition") {
    assert(sizeCompatible(10, 10, 0.5))
    assert(sizeCompatible(10, 5, 0.5))
    assert(!sizeCompatible(10, 4, 0.5))
    assert(sizeCompatible(4, 8, 0.5))
    assert(!sizeCompatible(100, 89, 0.9))
  }

  test("verify reports exact similarity for true pairs and counts stages") {
    val (x, y) = TestUtil.pairWithJaccard(10, 14)
    val e = emb(Seq(x, y))
    val stats = new LocalStats
    val lh = Sketch.lambdaHat(0.5, p.sketchBits, 0.05)
    val s = verify(e(0), e(1), 0.5, lh, p.sketchBits, stats)
    assert(math.abs(s - 10.0 / 14) < 1e-12)
    assert(stats.pre == 1 && stats.res == 1)
  }

  test("verify rejects below-threshold pairs (NaN) with no result counted") {
    val (x, y) = TestUtil.pairWithJaccard(2, 12)
    val e = emb(Seq(x, y))
    val stats = new LocalStats
    val s = verify(e(0), e(1), 0.8, 0.0, p.sketchBits, stats)
    assert(s.isNaN)
    assert(stats.pre == 1 && stats.res == 0)
  }

  test("size filter rejects incompatible pairs before sketching") {
    val x = SetRec(0, (0 until 100).toArray)
    val y = SetRec(1, (0 until 10).toArray)
    val e = emb(Seq(x, y))
    val stats = new LocalStats
    val s = verify(e(0), e(1), 0.5, 0.0, p.sketchBits, stats)
    assert(s.isNaN)
    assert(stats.pre == 1 && stats.cand == 0)
  }

  test("sketch filter (lambdaHat = 1.01) rejects every non-identical pair") {
    val (x, y) = TestUtil.pairWithJaccard(10, 14)
    val e = emb(Seq(x, y))
    val stats = new LocalStats
    val s = verify(e(0), e(1), 0.5, 1.01, p.sketchBits, stats)
    assert(s.isNaN && stats.cand == 0)
  }

  test("sketchBits = 0 disables the sketch filter") {
    val (x, y) = TestUtil.pairWithJaccard(10, 14)
    val e = emb(Seq(x, y))
    val s = verify(e(0), e(1), 0.5, 0.9, 0, new LocalStats)
    assert(!s.isNaN)
  }

  test("bruteForcePairs finds exactly the true pairs (sketch filter off)") {
    val recs = TestUtil.randomRecords(60, 12, 40, seed = 5)
    val truth = TestUtil.bruteTruth(recs, 0.5)
    val found = scala.collection.mutable.HashMap.empty[(Long, Long), Double]
    Verification.bruteForcePairs(emb(recs), 0.5, noSketch, new LocalStats,
      (a, b, s) => found.update((math.min(a, b), math.max(a, b)), s))
    assert(found.keySet == truth.keySet)
    TestUtil.assertPerfectPrecision(found.toMap, recs, 0.5)
  }

  test("bruteForcePairs counts n(n-1)/2 pre-candidates") {
    val recs = TestUtil.randomRecords(20, 8, 30, seed = 6)
    val stats = new LocalStats
    Verification.bruteForcePairs(emb(recs), 0.5, noSketch, stats, (_, _, _) => ())
    assert(stats.pre == 20 * 19 / 2)
  }

  test("bruteForcePoint compares a point against all others exactly once") {
    val recs = TestUtil.randomRecords(30, 10, 25, seed = 7)
    val e = emb(recs)
    val stats = new LocalStats
    val found = scala.collection.mutable.HashSet.empty[(Long, Long)]
    bruteForcePoint(e(0), e, 0.5, noSketch, stats,
      (a, b, _) => found += ((math.min(a, b), math.max(a, b))))
    assert(stats.pre == 29, "self-comparison skipped")
    val truth = TestUtil.bruteTruth(recs, 0.5).keySet.filter(pr => pr._1 == 0L || pr._2 == 0L)
    assert(found == truth)
  }

  test("the integer size range decides exactly as sizeCompatible") {
    for (lambda <- Seq(0.1, 0.2, 0.3, 1.0 / 3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.99); s <- 0 to 200) {
      val lo = Verification.minCompatibleSize(s, lambda)
      val hi = Verification.maxCompatibleSize(s, lambda)
      for (y <- 0 to 2100)
        assert((lo <= y && y <= hi) == sizeCompatible(s, y, lambda), s"λ=$lambda s=$s y=$y [$lo, $hi]")
    }
  }

  /** The brute-force kernels' reference: `verify` on every pair of a bucket. */
  private def verifyLoop(bucket: IndexedSeq[EmbeddedRec], lambda: Double, lambdaHat: Double, bits: Int,
                         stats: LocalStats): Map[(Long, Long), Double] =
    (for (i <- bucket.indices; j <- (i + 1) until bucket.length;
          sim = verify(bucket(i), bucket(j), lambda, lambdaHat, bits, stats) if !sim.isNaN)
      yield (bucket(i).id, bucket(j).id) -> sim).toMap

  test("bruteForcePairs and bruteForcePoint equal a per-pair verify loop, sketch on and off") {
    val q = CPSParams(t = 16, ell = 8, seed = 4)
    val h = new MinHasher(q.t, q.ell, q.seed)
    var results, exactRejects, sketchRejects = 0L
    for (seed <- 1 to 12; lambda <- Seq(0.3, 0.5, 0.8); sketchOn <- Seq(true, false)) {
      val recs = TestUtil.randomRecords(60, 6, 16, seed = seed, spread = 4)
      val bucket = EmbeddedRec.embedAll(recs, h).toIndexedSeq
      val bits = if (sketchOn) q.sketchBits else 0
      val lh = Sketch.lambdaHat(lambda, q.sketchBits, q.delta)
      val maxD = Sketch.maxDistance(lh, bits)
      val refStats = new LocalStats
      val ref = verifyLoop(bucket, lambda, lh, bits, refStats)
      val stats = new LocalStats
      val got = mutable.ArrayBuffer.empty[((Long, Long), Double)]
      Verification.bruteForcePairs(bucket, lambda, maxD, stats, (a, b, s) => got += (((a, b), s)))
      val ctx = s"seed=$seed λ=$lambda sketch=$sketchOn"
      assert(got.size == ref.size && got.toMap == ref, ctx)
      assert((stats.pre, stats.cand, stats.res) == ((refStats.pre, refStats.cand, refStats.res)), ctx)
      results += ref.size
      exactRejects += refStats.cand - refStats.res
      if (sketchOn) sketchRejects -= refStats.cand else sketchRejects += refStats.cand

      val x = bucket(seed)
      val pointRefStats = new LocalStats
      val pointRef = bucket.filter(_.id != x.id).flatMap { y =>
        val sim = verify(x, y, lambda, lh, bits, pointRefStats)
        if (sim.isNaN) None else Some((math.min(x.id, y.id), math.max(x.id, y.id)) -> sim)
      }.toMap
      val pointStats = new LocalStats
      val point = mutable.HashMap.empty[(Long, Long), Double]
      bruteForcePoint(x, bucket, lambda, maxD, pointStats, (a, b, s) => point((a, b)) = s)
      assert(point == pointRef, ctx)
      assert((pointStats.pre, pointStats.cand, pointStats.res) ==
        ((pointRefStats.pre, pointRefStats.cand, pointRefStats.res)), ctx)
    }
    assert(results > 0 && exactRejects > 0 && sketchRejects > 0, "the buckets must exercise every filter")
  }

  /** A bucket of `n` records with a wide size spread, ids distinct and out of
    * order. Sizes lie in 1–60, drawn from few values so many are equal; some
    * records come in families of prefixes of one token range, at an anchor
    * size s and at ⌈λs⌉, ⌈λs⌉ − 1, `maxCompatibleSize(s)` and one above it, so
    * pairs sit on both sides of each size bound and of J = λ. Ids start at
    * `idBase`.
    */
  private def spreadBucket(n: Int, lambda: Double, seed: Long, h: MinHasher, idBase: Long = 0): IndexedSeq[EmbeddedRec] = {
    val rng = new SplittableRandom(seed)
    val recs = mutable.ArrayBuffer.empty[SetRec]
    def add(tokens: Array[Int]): Unit =
      if (recs.length < n && tokens.length >= 1 && tokens.length <= 60)
        recs += SetRec(idBase + (recs.length * 7919L) % 10007, tokens)
    val sizes = Array.fill(6)(1 + rng.nextInt(60))
    while (recs.length < n) {
      if (rng.nextInt(3) == 0) {
        val s = 1 + rng.nextInt((60 * lambda).toInt) // maxCompatibleSize(s) stays near 60
        val off = rng.nextInt(4)
        for (size <- Seq(s, Verification.minCompatibleSize(s, lambda), Verification.minCompatibleSize(s, lambda) - 1,
                         Verification.maxCompatibleSize(s, lambda), Verification.maxCompatibleSize(s, lambda) + 1))
          add((off until off + size).toArray)
      } else {
        val size = sizes(rng.nextInt(sizes.length))
        val set = mutable.LinkedHashSet.empty[Int]
        while (set.size < size) set += rng.nextInt(size + 8)
        add(set.toArray.sorted)
      }
    }
    EmbeddedRec.embedAll(recs, h).toIndexedSeq
  }

  test("the size-sorted kernels equal the per-pair reference over wide size spreads") {
    val q = CPSParams(t = 16, ell = 8, seed = 4)
    val h = new MinHasher(q.t, q.ell, q.seed)
    var results, sizeRejects, pointsOutside = 0L
    for (lambda <- Seq(0.3, 0.5, 0.8, 0.9); n <- Seq(0, 1, 2, 40, 300); seed <- 1 to 2) {
      val bucket = spreadBucket(n, lambda, seed * 31 + n, h)
      val outsider = spreadBucket(1, lambda, seed * 37 + n, h, idBase = 20000).head
      for (sketchOn <- Seq(true, false)) {
        val bits = if (sketchOn) q.sketchBits else 0
        val lh = Sketch.lambdaHat(lambda, q.sketchBits, q.delta)
        val maxD = Sketch.maxDistance(lh, bits)
        val ctx = s"λ=$lambda n=$n seed=$seed sketch=$sketchOn"
        def counts(st: LocalStats) = (st.pre, st.cand, st.res)
        def emitted(run: (LocalStats, (Long, Long, Double) => Unit) => Unit) = {
          val stats = new LocalStats
          val got = mutable.ArrayBuffer.empty[((Long, Long), Double)]
          run(stats, (a, b, s) => got += (((a, b), s)))
          (got.toSeq, stats)
        }

        val refStats = new LocalStats
        val ref = (for (i <- bucket.indices; j <- (i + 1) until n;
                        sim = verify(bucket(i), bucket(j), lambda, lh, bits, refStats) if !sim.isNaN)
          yield (math.min(bucket(i).id, bucket(j).id), math.max(bucket(i).id, bucket(j).id)) -> sim).toMap
        val (got, stats) = emitted(Verification.bruteForcePairs(bucket, lambda, maxD, _, _))
        assert(got.size == ref.size && got.toMap == ref, ctx)
        assert(counts(stats) == counts(refStats), ctx)
        results += ref.size
        if (!sketchOn) sizeRejects += refStats.pre - refStats.cand

        // BRUTEFORCEPOINT with the point inside the bucket and outside it.
        for (x <- (if (n > 0) Seq(bucket(seed % n), bucket(n - 1)) else Nil) :+ outsider) {
          val pointRefStats = new LocalStats
          val pointRef = bucket.filter(_.id != x.id).flatMap { y =>
            val sim = verify(x, y, lambda, lh, bits, pointRefStats)
            if (sim.isNaN) None else Some((math.min(x.id, y.id), math.max(x.id, y.id)) -> sim)
          }.toMap
          val (point, pointStats) = emitted(bruteForcePoint(x, bucket, lambda, maxD, _, _))
          assert(point.size == pointRef.size && point.toMap == pointRef, s"$ctx x=${x.id}")
          assert(counts(pointStats) == counts(pointRefStats), s"$ctx x=${x.id}")
          if (x eq outsider) pointsOutside += pointRef.size
        }
      }
    }
    assert(results > 0 && sizeRejects > 0 && pointsOutside > 0, "the buckets must exercise every path")
  }

  /** `dedup` of an emit stream against a `mutable.HashMap` keyed (min, max). */
  private def assertDedupMatchesReference(stream: Seq[(Long, Long, Double)]): Unit = {
    val ref = mutable.HashMap.empty[(Long, Long), Double]
    for ((a, b, s) <- stream) ref((math.min(a, b), math.max(a, b))) = s
    val got = Verification.dedup(emit => stream.foreach { case (a, b, s) => emit(a, b, s) })
    assert(got == ref.toMap && got.size == ref.size)
  }

  test("dedup equals a HashMap reference: repeats, both id orders, extreme ids, resizes") {
    val rng = new SplittableRandom(11)
    val extremes = Array(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
    def id(range: Int): Long =
      if (rng.nextInt(8) == 0) extremes(rng.nextInt(extremes.length)) else rng.nextInt(range) - range / 2L
    for (range <- Seq(4, 40, 400)) {
      // Few ids: every pair repeats many times, in both orders, with new similarities.
      assertDedupMatchesReference(Seq.fill(5000)((id(range), id(range), rng.nextDouble())))
    }
    // Enough distinct pairs to double the table many times over.
    val many = (0 until 40000).map(i => (i.toLong * 7919 - 100000, -i.toLong, i / 40000.0))
    assertDedupMatchesReference(many ++ many.reverse.map { case (a, b, s) => (b, a, s + 1) })
    assert(Verification.dedup(emit => emit(Long.MaxValue, Long.MinValue, 0.5)) == Map((Long.MinValue, Long.MaxValue) -> 0.5))
  }

  test("dedup of an empty stream is the empty Map") {
    assert(Verification.dedup(_ => ()) == Map.empty)
  }
}
