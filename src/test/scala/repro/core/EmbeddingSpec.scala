package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Randomized embedding from any LSHable similarity measure to fixed-size
  * sets (paper §II-A): with h_1,…,h_t drawn from a family satisfying
  * Pr[h(x) = h(y)] = sim(x, y), the embedding f(x) = {(i, h_i(x))} has
  * E[|f(x) ∩ f(y)|] = t·sim(x,y), turning any LSHable join into a
  * Braun–Blanquet join over sets of fixed size t.
  *
  * For Jaccard similarity the h_i are MinHash functions, so f(x) is exactly
  * the record's minhash vector tagged with the coordinate index. CPSJoin
  * operates on this representation implicitly (its splitting step samples
  * coordinates i and buckets on h_i(x)); this helper materializes it for the
  * tests of the concentration claim and for the Braun–Blanquet similarity.
  */
private object Embedding {

  /** Materialize f(x) for a minhash vector: element i is (i, mh_i). */
  def embed(mh: Array[Int]): Array[Long] = {
    val out = new Array[Long](mh.length)
    var i = 0
    while (i < mh.length) { out(i) = (i.toLong << 32) | (mh(i).toLong & 0xffffffffL); i += 1 }
    out
  }

  /** Braun–Blanquet similarity of two embedded records of equal size t:
    * B(f(x), f(y)) = |f(x) ∩ f(y)| / t, i.e. the fraction of agreeing
    * minhash coordinates — an unbiased estimator of Jaccard similarity.
    */
  def braunBlanquet(mhX: Array[Int], mhY: Array[Int]): Double = {
    require(mhX.length == mhY.length, "embedded records must have equal size t")
    var agree = 0; var i = 0
    while (i < mhX.length) { if (mhX(i) == mhY(i)) agree += 1; i += 1 }
    agree.toDouble / mhX.length
  }
}

class EmbeddingSpec extends AnyFunSuite {

  test("embed tags each coordinate with its index (fixed size t)") {
    val mh = Array(7, 7, 9)
    val f = Embedding.embed(mh)
    assert(f.length == 3)
    assert(f.toSet.size == 3, "coordinates with equal minhash stay distinct elements")
    assert(f(0) == ((0L << 32) | 7L) && f(2) == ((2L << 32) | 9L))
  }

  test("braunBlanquet of identical vectors is 1, of disjoint-valued vectors 0") {
    assert(Embedding.braunBlanquet(Array(1, 2, 3), Array(1, 2, 3)) == 1.0)
    assert(Embedding.braunBlanquet(Array(1, 2, 3), Array(4, 5, 6)) == 0.0)
    assert(Embedding.braunBlanquet(Array(1, 2), Array(1, 9)) == 0.5)
  }

  test("braunBlanquet requires equal-size embeddings") {
    intercept[IllegalArgumentException](Embedding.braunBlanquet(Array(1), Array(1, 2)))
  }

  test("braunBlanquet equals |f(x) ∩ f(y)| / t") {
    val mhX = Array(3, 5, 5, 9)
    val mhY = Array(3, 6, 5, 1)
    val inter = Embedding.embed(mhX).toSet.intersect(Embedding.embed(mhY).toSet).size
    assert(Embedding.braunBlanquet(mhX, mhY) == inter.toDouble / 4)
  }

  test("concentration: |f(x) ∩ f(y)| ≈ t·J(x,y) (paper §II-A)") {
    for ((inter, union) <- Seq((10, 14), (5, 9), (2, 10))) {
      val (x, y) = TestUtil.pairWithJaccard(inter, union)
      val j = inter.toDouble / union
      val t = 256
      var sum = 0.0
      val trials = 10
      for (seed <- 0 until trials) {
        val h = new MinHasher(t, 0, seed = 500 + seed)
        sum += Embedding.braunBlanquet(h.embed(x.tokens)._1, h.embed(y.tokens)._1)
      }
      val avg = sum / trials
      assert(math.abs(avg - j) < 0.06, s"B estimate $avg vs J=$j")
    }
  }
}
