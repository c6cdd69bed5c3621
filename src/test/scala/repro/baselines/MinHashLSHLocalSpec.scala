package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core._
import repro.data.Datasets
import scala.collection.mutable

class MinHashLSHLocalSpec extends AnyFunSuite {

  private val p = CPSParams(t = 64, ell = 4, seed = 17)
  private val hasher = new MinHasher(p.t, p.ell, p.seed)
  private def emb(recs: Seq[SetRec]) = EmbeddedRec.embedAll(recs.toIndexedSeq, hasher).toIndexedSeq

  test("repCoordinates returns k distinct coordinates, deterministically") {
    for (k <- 2 to 8) {
      val c1 = MinHashLSHLocal.repCoordinates(64, k, seed = 5, rep = 3)
      val c2 = MinHashLSHLocal.repCoordinates(64, k, seed = 5, rep = 3)
      assert(c1.sameElements(c2))
      assert(c1.length == k && c1.distinct.length == k)
      assert(c1.forall(c => c >= 0 && c < 64))
    }
  }

  test("repCoordinates at k are a prefix of those at k + 1") {
    for (t <- Seq(1, 5, 10, 128); rep <- -1 to 3; k <- 1 to 11) {
      val short = MinHashLSHLocal.repCoordinates(t, k, seed = 5, rep)
      val long = MinHashLSHLocal.repCoordinates(t, k + 1, seed = 5, rep)
      assert(short.length == math.min(k, t) && long.take(short.length).sameElements(short), s"t=$t rep=$rep k=$k")
    }
  }

  test("different repetitions use different coordinates (almost surely)") {
    val cs = (0 until 10).map(r => MinHashLSHLocal.repCoordinates(64, 4, seed = 5, rep = r).toSeq)
    assert(cs.distinct.size > 5)
  }

  /** The buckets' reference: a boxed `HashMap` keyed on the k-tuple of
    * minhashes itself, members (as ids) in input order.
    */
  private def referenceBuckets(recs: IndexedSeq[EmbeddedRec], k: Int, rep: Int, q: CPSParams): Seq[Seq[Long]] = {
    val coords = MinHashLSHLocal.repCoordinates(q.t, k, q.seed, rep).toSeq
    val groups = mutable.HashMap.empty[Seq[Int], mutable.ArrayBuffer[Long]]
    for (r <- recs) groups.getOrElseUpdate(coords.map(r.mh(_)), mutable.ArrayBuffer.empty) += r.id
    groups.values.filter(_.length >= 2).map(_.toSeq).toSeq
  }

  /** `chooseK`'s reference: the same cost rule over `referenceBuckets`. */
  private def referenceK(recs: IndexedSeq[EmbeddedRec], lambda: Double, seed: Long): Int = {
    val q = CPSParams(t = recs.head.mh.length, seed = seed)
    (2 to 10).minBy { k =>
      val pairs = referenceBuckets(recs, k, -1, q).map(b => b.length * (b.length - 1L) / 2.0).sum
      MinHashLSHLocal.repetitionsFor(0.9, lambda, k) * (pairs + recs.length)
    }
  }

  for (name <- Seq("AOL", "UNIFORM005"))
    test(s"buckets are the exact k-tuple groups and chooseK picks the reference k on $name") {
      val recs = emb(Datasets.byName(name).gen(scale = 1.0, seed = 7))
      for (k <- 2 to 10; rep <- -1 to 4) {
        val got = MinHashLSHLocal.buckets(recs, k, rep, p).map(_.map(_.id).toSeq).toSeq
        val ref = referenceBuckets(recs, k, rep, p)
        assert(got.size == ref.size && got.toSet == ref.toSet, s"k=$k rep=$rep")
      }
      for (lambda <- Seq(0.5, 0.7, 0.9))
        assert(MinHashLSHLocal.chooseK(recs, lambda, 0.9, seed = 5) == referenceK(recs, lambda, 5), s"λ=$lambda")
    }

  test("repetitionsFor matches the formula L = ceil(ln(1/(1-φ))/λ^k)") {
    assert(MinHashLSHLocal.repetitionsFor(0.9, 0.5, 2) == math.ceil(math.log(10.0) / 0.25).toInt)
    assert(MinHashLSHLocal.repetitionsFor(0.9, 0.5, 4) == math.ceil(math.log(10.0) / 0.0625).toInt)
    assert(MinHashLSHLocal.repetitionsFor(0.5, 0.9, 1) == 1)
    // More repetitions needed for higher recall and longer keys.
    assert(MinHashLSHLocal.repetitionsFor(0.99, 0.5, 3) > MinHashLSHLocal.repetitionsFor(0.9, 0.5, 3))
    assert(MinHashLSHLocal.repetitionsFor(0.9, 0.5, 5) > MinHashLSHLocal.repetitionsFor(0.9, 0.5, 3))
  }

  test("chooseK returns a value in the allowed range") {
    val recs = emb(TestUtil.randomRecords(300, 12, 60, seed = 50, spread = 4))
    for (lambda <- Seq(0.5, 0.7, 0.9)) {
      val k = MinHashLSHLocal.chooseK(recs, lambda, 0.9, seed = 5)
      assert(k >= 2 && k <= 10)
    }
  }

  /** Estimated cost of one repetition at key length k, as `chooseK` counts
    * it: number of in-bucket pairs (similarity estimations) plus n (splitting
    * work), over the buckets of repetition −1.
    */
  private def repCost(recs: IndexedSeq[EmbeddedRec], k: Int, seed: Long): Double =
    MinHashLSHLocal.buckets(recs, k, rep = -1, CPSParams(t = recs.head.mh.length, seed = seed))
      .map(b => b.length * (b.length - 1L) / 2.0).sum + recs.length

  test("repCost decreases with k (longer keys mean smaller buckets)") {
    val recs = emb(TestUtil.randomRecords(500, 12, 40, seed = 51))
    val c2 = repCost(recs, 2, seed = 5)
    val c8 = repCost(recs, 8, seed = 5)
    assert(c8 <= c2)
  }

  for {
    name <- Seq("DBLP", "UNIFORM005", "BMS-POS")
    lambda <- Seq(0.5, 0.7, 0.9)
  } test(s"recall >= 0.7 and precision = 1 on $name at λ=$lambda") {
    // φ = 0.9 is a *per-pair* probability; with the small truth sets of
    // test-scale data the realized recall has high variance, so assert a
    // conservative 0.7 here (the benches measure the 0.9 protocol at scale).
    val recs = Datasets.byName(name).gen(scale = 0.2, seed = 52).toIndexedSeq
    val truth = TestUtil.bruteTruth(recs, lambda)
    val res = MinHashLSHLocal.selfJoin(emb(recs), lambda, phi = 0.9, p)
    TestUtil.assertPerfectPrecision(res, recs, lambda)
    val rec = TestUtil.recall(res.keySet, truth.keySet)
    assert(rec >= 0.7, s"recall $rec (|truth|=${truth.size})")
  }

  test("empty and trivial inputs") {
    assert(MinHashLSHLocal.selfJoin(IndexedSeq.empty, 0.5, 0.9, p).isEmpty)
    val dup = emb(Seq(SetRec(0, Array(1, 2, 3)), SetRec(1, Array(1, 2, 3))))
    val res = MinHashLSHLocal.run(dup, 0.9, 2, 0 until MinHashLSHLocal.repetitionsFor(0.9, 0.9, 2), p, new LocalStats)
    assert(res.contains((0L, 1L)))
    // t = 1: the key length is capped at one coordinate.
    val t1 = CPSParams(t = 1)
    val three = EmbeddedRec.embedAll(IndexedSeq(SetRec(0, Array(1, 2, 3)), SetRec(1, Array(1, 2, 3)),
      SetRec(2, Array(4, 5))), new MinHasher(t1.t, t1.ell, t1.seed)).toIndexedSeq
    assert(MinHashLSHLocal.chooseK(three, 0.5, 0.9, t1.seed) == 1)
    assert(MinHashLSHLocal.selfJoin(three, 0.5, 0.9, t1).keySet == Set((0L, 1L)))
  }
}
