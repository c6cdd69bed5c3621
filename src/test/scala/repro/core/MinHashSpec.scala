package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.Datasets
import repro.util.Hashing
import repro.util.Hashing.Tabulation64
import java.util.SplittableRandom

/** Reference embedding: a direct token-outer loop with one running minimum
  * per function in an array, which hashes each argmin token again for its
  * sketch bit, from the same seeded tabulation table and salts as
  * `MinHasher`. `MinHasher.embed` must return exactly its arrays.
  */
private object ReferenceEmbed {

  def embed(t: Int, sketchWords: Int, seed: Long, tokens: Array[Int]): (Array[Int], Array[Long]) = {
    val sketchBits = 64 * sketchWords
    val nFns = t + sketchBits
    val tab = new Tabulation64(seed)
    val fnRng = new SplittableRandom(Hashing.mix64(seed ^ 0x5ca1ab1eL))
    val fnSalts = Array.fill(nFns)(fnRng.nextLong())
    val bitRng = new SplittableRandom(Hashing.mix64(seed ^ 0x0ddba11L))
    val bitSalts = Array.fill(math.max(1, sketchBits))(bitRng.nextLong())
    val minVals = Array.fill(nFns)(Long.MaxValue)
    val argmin = new Array[Int](nFns)
    for (token <- tokens) {
      val z = tab.hash(token)
      for (f <- 0 until nFns) {
        val v = Hashing.mix64(z ^ fnSalts(f))
        if (v < minVals(f)) { minVals(f) = v; argmin(f) = token }
      }
    }
    val sketch = new Array[Long](sketchWords)
    for (b <- 0 until sketchBits) {
      val bit = Hashing.mix64(tab.hash(argmin(t + b)) ^ bitSalts(b)) & 1L
      sketch(b >>> 6) |= bit << (b & 63)
    }
    (argmin.take(t), sketch)
  }
}

class MinHashSpec extends AnyFunSuite {

  test("embed equals the reference embedding array for array") {
    val rng = new SplittableRandom(11)
    for ((t, ell) <- Seq((1, 0), (1, 8), (16, 1), (128, 8)); seed <- Seq(0L, 1L, 42L, -7L);
         size <- Seq(1, 2, 3, 4, 37, 212, 1000)) {
      val tokens = rng.ints(size.toLong * 4, 0, Int.MaxValue).distinct().limit(size.toLong).toArray
      val (mh, sketch) = new MinHasher(t, ell, seed).embed(tokens)
      val (refMh, refSketch) = ReferenceEmbed.embed(t, ell, seed, tokens)
      withClue(s"t=$t ℓ=$ell seed=$seed |x|=$size: ") {
        assert(mh.length == t && sketch.length == ell)
        assert(mh.sameElements(refMh))
        assert(sketch.sameElements(refSketch))
      }
    }
  }

  test("embedAll on AOL (seed 7) with the default parameters matches its recorded checksum") {
    // Recorded from the reference embedding; a change of hash family changes it.
    val p = CPSParams()
    val emb = EmbeddedRec.embedAll(Datasets.byName("AOL").gen(1.0, 7), new MinHasher(p.t, p.ell, p.seed))
    val checksum = emb.foldLeft(17L) { (acc, e) =>
      e.sketch.foldLeft(e.mh.foldLeft(acc)((a, v) => a * 31 + v))((a, v) => a * 31 + v)
    }
    assert(emb.length == 2000)
    assert(checksum == -8221457277115399322L)
  }

  test("embed is deterministic in the seed") {
    val h1 = new MinHasher(32, 2, seed = 5)
    val h2 = new MinHasher(32, 2, seed = 5)
    val tokens = Array(3, 17, 99, 256, 70000)
    val (mh1, sk1) = h1.embed(tokens)
    val (mh2, sk2) = h2.embed(tokens)
    assert(mh1.sameElements(mh2) && sk1.sameElements(sk2))
  }

  test("different seeds give different embeddings") {
    val h1 = new MinHasher(32, 2, seed = 5)
    val h2 = new MinHasher(32, 2, seed = 6)
    val tokens = Array(3, 17, 99, 256, 70000)
    assert(!h1.embed(tokens)._1.sameElements(h2.embed(tokens)._1))
  }

  test("minhash values are elements of the input set") {
    val h = new MinHasher(64, 1, seed = 1)
    val tokens = Array(2, 5, 11, 23, 47)
    val mh = h.embed(tokens)._1
    assert(mh.forall(tokens.contains))
    assert(mh.length == 64)
  }

  test("embed rejects the empty set") {
    val h = new MinHasher(8, 1, seed = 1)
    intercept[IllegalArgumentException](h.embed(Array.empty[Int]))
  }

  test("identical sets have identical minhash vectors and sketches") {
    val h = new MinHasher(64, 4, seed = 2)
    val tokens = Array(1, 9, 100, 5000)
    val (mh1, sk1) = h.embed(tokens)
    val (mh2, sk2) = h.embed(tokens.clone())
    assert(mh1.sameElements(mh2) && sk1.sameElements(sk2))
  }

  test("minwise property: coordinate agreement rate approximates Jaccard") {
    // Average over many independent hashers to test the *family*, not one draw.
    for ((inter, union) <- Seq((9, 11), (5, 9), (3, 11), (1, 9))) {
      val (x, y) = TestUtil.pairWithJaccard(inter, union)
      val j = inter.toDouble / union
      var agree = 0
      var total = 0
      for (seed <- 0 until 20) {
        val h = new MinHasher(64, 0, seed = 1000 + seed)
        val a = h.embed(x.tokens)._1; val b = h.embed(y.tokens)._1
        for (i <- 0 until 64) { if (a(i) == b(i)) agree += 1; total += 1 }
      }
      val rate = agree.toDouble / total
      assert(math.abs(rate - j) < 0.05, s"agreement $rate vs J=$j for ($inter/$union)")
    }
  }

  test("sketch bit agreement rate approximates (1+J)/2") {
    for ((inter, union) <- Seq((9, 11), (3, 11))) {
      val (x, y) = TestUtil.pairWithJaccard(inter, union)
      val j = inter.toDouble / union
      var agree = 0L
      var total = 0L
      for (seed <- 0 until 10) {
        val h = new MinHasher(1, 8, seed = 2000 + seed)
        val (_, sa) = h.embed(x.tokens)
        val (_, sb) = h.embed(y.tokens)
        agree += 512 - Sketch.hamming(sa, sb)
        total += 512
      }
      val rate = agree.toDouble / total
      assert(math.abs(rate - (1 + j) / 2) < 0.05, s"bit agreement $rate vs ${(1 + j) / 2}")
    }
  }

  test("disjoint sets agree on roughly half the sketch bits") {
    val x = (0 until 50).toArray
    val y = (100 until 150).toArray
    var agree = 0L
    for (seed <- 0 until 10) {
      val h = new MinHasher(1, 8, seed = 3000 + seed)
      agree += 512 - Sketch.hamming(h.embed(x)._2, h.embed(y)._2)
    }
    val rate = agree.toDouble / 5120
    assert(math.abs(rate - 0.5) < 0.05, s"disjoint-set bit agreement $rate")
  }

  test("embedAll preserves ids and tokens") {
    val recs = TestUtil.randomRecords(50, 10, 100, seed = 4)
    val h = new MinHasher(16, 1, seed = 1)
    val emb = EmbeddedRec.embedAll(recs, h)
    assert(emb.length == 50)
    for ((e, r) <- emb.zip(recs)) {
      assert(e.id == r.id)
      assert(e.tokens.sameElements(r.tokens))
      assert(e.mh.length == 16 && e.sketch.length == 1)
    }
  }

  test("singleton sets collide in minhash iff equal") {
    val h = new MinHasher(16, 1, seed = 9)
    val a = h.embed(Array(42))._1
    val b = h.embed(Array(42))._1
    val c = h.embed(Array(43))._1
    assert(a.sameElements(b))
    assert(!a.sameElements(c))
  }
}
