package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

class VerificationSpec extends AnyFunSuite {

  private val p = CPSParams(t = 16, ell = 2, seed = 3)
  private val hasher = new MinHasher(p.t, p.ell, p.seed)
  private def emb(recs: Seq[SetRec]) = EmbeddedRec.embedAll(recs.toIndexedSeq, hasher).toIndexedSeq

  test("sizeCompatible matches the necessary size condition") {
    assert(Verification.sizeCompatible(10, 10, 0.5))
    assert(Verification.sizeCompatible(10, 5, 0.5))
    assert(!Verification.sizeCompatible(10, 4, 0.5))
    assert(Verification.sizeCompatible(4, 8, 0.5))
    assert(!Verification.sizeCompatible(100, 89, 0.9))
  }

  test("verify reports exact similarity for true pairs and counts stages") {
    val (x, y) = TestUtil.pairWithJaccard(10, 14)
    val e = emb(Seq(x, y))
    val stats = new LocalStats
    val lh = Sketch.lambdaHat(0.5, p.sketchBits, 0.05)
    val s = Verification.verify(e(0), e(1), 0.5, lh, p.sketchBits, stats)
    assert(math.abs(s - 10.0 / 14) < 1e-12)
    assert(stats.pre == 1 && stats.res == 1)
  }

  test("verify rejects below-threshold pairs (NaN) with no result counted") {
    val (x, y) = TestUtil.pairWithJaccard(2, 12)
    val e = emb(Seq(x, y))
    val stats = new LocalStats
    val s = Verification.verify(e(0), e(1), 0.8, 0.0, p.sketchBits, stats)
    assert(s.isNaN)
    assert(stats.pre == 1 && stats.res == 0)
  }

  test("size filter rejects incompatible pairs before sketching") {
    val x = SetRec(0, (0 until 100).toArray)
    val y = SetRec(1, (0 until 10).toArray)
    val e = emb(Seq(x, y))
    val stats = new LocalStats
    val s = Verification.verify(e(0), e(1), 0.5, 0.0, p.sketchBits, stats)
    assert(s.isNaN)
    assert(stats.pre == 1 && stats.cand == 0)
  }

  test("sketch filter (lambdaHat = 1.01) rejects every non-identical pair") {
    val (x, y) = TestUtil.pairWithJaccard(10, 14)
    val e = emb(Seq(x, y))
    val stats = new LocalStats
    val s = Verification.verify(e(0), e(1), 0.5, 1.01, p.sketchBits, stats)
    assert(s.isNaN && stats.cand == 0)
  }

  test("sketchBits = 0 disables the sketch filter") {
    val (x, y) = TestUtil.pairWithJaccard(10, 14)
    val e = emb(Seq(x, y))
    val s = Verification.verify(e(0), e(1), 0.5, 0.9, 0, new LocalStats)
    assert(!s.isNaN)
  }

  test("bruteForcePairs finds exactly the true pairs (sketch filter off)") {
    val recs = TestUtil.randomRecords(60, 12, 40, seed = 5)
    val truth = TestUtil.bruteTruth(recs, 0.5)
    val found = scala.collection.mutable.HashMap.empty[(Long, Long), Double]
    Verification.bruteForcePairs(emb(recs), 0.5, 0.0, 0, new LocalStats,
      (a, b, s) => found.update((math.min(a, b), math.max(a, b)), s))
    assert(found.keySet == truth.keySet)
    TestUtil.assertPerfectPrecision(found.toMap, recs, 0.5)
  }

  test("bruteForcePairs counts n(n-1)/2 pre-candidates") {
    val recs = TestUtil.randomRecords(20, 8, 30, seed = 6)
    val stats = new LocalStats
    Verification.bruteForcePairs(emb(recs), 0.5, 0.0, 0, stats, (_, _, _) => ())
    assert(stats.pre == 20 * 19 / 2)
  }

  test("bruteForcePoint compares a point against all others exactly once") {
    val recs = TestUtil.randomRecords(30, 10, 25, seed = 7)
    val e = emb(recs)
    val stats = new LocalStats
    val found = scala.collection.mutable.HashSet.empty[(Long, Long)]
    Verification.bruteForcePoint(e(0), e, 0.5, 0.0, 0, stats,
      (a, b, _) => found += ((math.min(a, b), math.max(a, b))))
    assert(stats.pre == 29, "self-comparison skipped")
    val truth = TestUtil.bruteTruth(recs, 0.5).keySet.filter(pr => pr._1 == 0L || pr._2 == 0L)
    assert(found == truth)
  }
}
