package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

/** ScalaCheck property suite for the exact-similarity substrate (run through
  * scalacheck's own runner; scalatest asserts the aggregate verdict).
  */
class JaccardPropertiesSpec extends AnyFunSuite {

  private val genTokens: Gen[Array[Int]] =
    Gen.nonEmptyListOf(Gen.chooseNum(0, 500)).map(_.distinct.sorted.toArray)

  private def check(prop: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status.toString)
  }

  test("property: similarity is within [0,1] and symmetric") {
    check(Prop.forAll(genTokens, genTokens) { (x, y) =>
      val s = Jaccard.similarity(x, y)
      s >= 0.0 && s <= 1.0 && s == Jaccard.similarity(y, x)
    })
  }

  test("property: similarity is 1 iff the sets are equal") {
    check(Prop.forAll(genTokens, genTokens) { (x, y) =>
      (Jaccard.similarity(x, y) == 1.0) == (x.toSeq == y.toSeq)
    })
  }

  test("property: intersectionSize matches Set.intersect") {
    check(Prop.forAll(genTokens, genTokens) { (x, y) =>
      Jaccard.intersectionSize(x, y) == x.toSet.intersect(y.toSet).size
    })
  }

  test("property: overlap-threshold form agrees with the ratio form") {
    check(Prop.forAll(genTokens, genTokens, Gen.chooseNum(0.5, 0.9)) { (x, y, lambda) =>
      val inter = Jaccard.intersectionSize(x, y)
      val viaRatio = Jaccard.similarity(x, y) >= lambda - 1e-12
      val viaOverlap = inter + 1e-9 >= Jaccard.overlapThreshold(x.length, y.length, lambda)
      viaRatio == viaOverlap
    })
  }

  test("property: minhash vectors of equal sets are equal, and values come from the set") {
    val hasher = new MinHasher(16, 1, seed = 123)
    check(Prop.forAll(genTokens) { x =>
      val mh = hasher.embed(x)._1
      mh.sameElements(hasher.embed(x.clone())._1) && mh.forall(x.contains)
    })
  }

  test("property: adding a disjoint token never increases similarity") {
    check(Prop.forAll(genTokens, genTokens) { (x, y) =>
      val extra = 1000 + x.length * 7 // token outside both universes
      val x2 = (x :+ extra).sorted
      Jaccard.similarity(x2, y) <= Jaccard.similarity(x, y) + 1e-12
    })
  }
}
