package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import java.util.SplittableRandom

class SketchSpec extends AnyFunSuite {

  test("hamming distance basics") {
    assert(Sketch.hamming(Array(0L), Array(0L)) == 0)
    assert(Sketch.hamming(Array(-1L), Array(0L)) == 64)
    assert(Sketch.hamming(Array(1L, 2L), Array(1L, 3L)) == 1)
    assert(Sketch.hamming(Array(0xffL, 0L), Array(0L, 0xffL)) == 16)
  }

  test("estimate is 1 for identical sketches and ~0 for random sketches") {
    val rng = new SplittableRandom(1)
    val a = Array.fill(8)(rng.nextLong())
    assert(Sketch.estimate(a, a, 512) == 1.0)
    var sum = 0.0
    for (_ <- 0 until 200) {
      val b = Array.fill(8)(rng.nextLong())
      val c = Array.fill(8)(rng.nextLong())
      sum += Sketch.estimate(b, c, 512)
    }
    assert(sum / 200 < 0.05, "random sketches should estimate near 0 (clamped)")
  }

  test("estimate is clamped to [0,1]") {
    val rng = new SplittableRandom(2)
    for (_ <- 0 until 100) {
      val a = Array.fill(2)(rng.nextLong())
      val b = Array.fill(2)(rng.nextLong())
      val e = Sketch.estimate(a, b, 128)
      assert(e >= 0.0 && e <= 1.0)
    }
  }

  test("maxDistance is the sketch check in integer form: d <= maxD iff estimate >= lambdaHat") {
    for (lambda <- (1 to 9).map(_ / 10.0); ell <- Seq(1, 8); delta <- Seq(0.01, 0.05, 0.2)) {
      val bits = 64 * ell
      val lh = Sketch.lambdaHat(lambda, bits, delta)
      val maxD = Sketch.maxDistance(lh, bits)
      val zero = new Array[Long](ell)
      for (d <- 0 to bits) {
        // A sketch that differs from `zero` in exactly its first d bits.
        val y = Array.tabulate(ell)(w => if (d >= 64 * (w + 1)) -1L else if (d <= 64 * w) 0L else (1L << (d - 64 * w)) - 1)
        assert(Sketch.hamming(zero, y) == d)
        assert((d <= maxD) == (Sketch.estimate(zero, y, bits) >= lh), s"λ=$lambda ℓ=$ell δ=$delta d=$d maxD=$maxD")
      }
    }
  }

  test("maxDistance switches the check off for 0 bits and rejects every distance above an estimate of 1") {
    assert(Sketch.maxDistance(0.9, 0) == Int.MaxValue)
    assert(Sketch.maxDistance(0.0, 512) == Int.MaxValue)
    assert(Sketch.maxDistance(1.01, 512) == -1)
    assert(Sketch.maxDistance(1.0, 512) == 0)
  }

  test("lambdaHat is below lambda and increases with sketch length") {
    for (lambda <- Seq(0.5, 0.7, 0.9)) {
      val l64 = Sketch.lambdaHat(lambda, 64, 0.05)
      val l512 = Sketch.lambdaHat(lambda, 512, 0.05)
      assert(l64 < lambda && l512 < lambda)
      assert(l512 > l64, "longer sketches allow a tighter threshold")
    }
  }

  test("lambdaHat decreases as delta decreases (stricter FN bound)") {
    val loose = Sketch.lambdaHat(0.5, 512, 0.2)
    val tight = Sketch.lambdaHat(0.5, 512, 0.01)
    assert(tight < loose)
  }

  test("empirical false negative rate at J = lambda is below ~2*delta") {
    val lambda = 0.5
    val delta = 0.05
    val lh = Sketch.lambdaHat(lambda, 512, delta)
    val (x, y) = TestUtil.pairWithJaccard(10, 20) // J = 0.5 exactly
    var falseNeg = 0
    val trials = 400
    for (seed <- 0 until trials) {
      val h = new MinHasher(1, 8, seed = 7000 + seed)
      val sa = h.embed(x.tokens)._2
      val sb = h.embed(y.tokens)._2
      if (Sketch.estimate(sa, sb, 512) < lh) falseNeg += 1
    }
    val rate = falseNeg.toDouble / trials
    assert(rate < 2 * delta, s"false negative rate $rate exceeds ${2 * delta}")
  }

  test("pairs well above lambda essentially never fail the sketch check") {
    val lambda = 0.5
    val lh = Sketch.lambdaHat(lambda, 512, 0.05)
    val (x, y) = TestUtil.pairWithJaccard(9, 11) // J ≈ 0.82
    var falseNeg = 0
    for (seed <- 0 until 200) {
      val h = new MinHasher(1, 8, seed = 8000 + seed)
      if (Sketch.estimate(h.embed(x.tokens)._2, h.embed(y.tokens)._2, 512) < lh) falseNeg += 1
    }
    assert(falseNeg <= 2, s"high-similarity pair failed sketch check $falseNeg/200 times")
  }

  test("bucketSketch estimates average similarity of a point to a bucket") {
    // Bucket: half clones of x (J = 1), half disjoint sets (J = 0) → avg 0.5.
    val h = new MinHasher(1, 8, seed = 11)
    val x = (0 until 40).toArray
    val far = (1000 until 1040).toArray
    val skX = h.embed(x)._2
    val skFar = h.embed(far)._2
    val sketches = IndexedSeq.fill(50)(skX) ++ IndexedSeq.fill(50)(skFar)
    var est = 0.0
    val trials = 50
    for (s <- 0 until trials) {
      val rng = new SplittableRandom(100 + s)
      val sHat = Sketch.bucketSketch(sketches, 8, rng)
      est += Sketch.estimate(skX, sHat, 512)
    }
    est /= trials
    assert(math.abs(est - 0.5) < 0.08, s"bucket average similarity estimate $est vs 0.5")
  }

  test("bucketSketch of a single-sketch bucket reproduces that sketch") {
    val h = new MinHasher(1, 4, seed = 12)
    val sk = h.embed((0 until 30).toArray)._2
    val rng = new SplittableRandom(5)
    val sHat = Sketch.bucketSketch(IndexedSeq(sk), 4, rng)
    assert(sHat.sameElements(sk))
  }

  test("bucketSketch rejects empty input") {
    intercept[IllegalArgumentException](
      Sketch.bucketSketch(IndexedSeq.empty, 1, new SplittableRandom(1)))
  }
}
