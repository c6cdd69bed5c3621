package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.Datasets
import scala.collection.mutable

class CPSJoinLocalSpec extends AnyFunSuite {

  private val p = CPSParams(t = 64, ell = 4, limit = 40, eps = 0.1, delta = 0.05, reps = 10, seed = 99)

  /** Algorithm 2's exact average-similarity rule on the embedded records, the
    * reference for the sketch estimate `bruteForceStep` uses: count[(i, v)]
    * is the number of bucket members whose i-th minhash equals v, and a
    * record is removed when its average similarity to the other members,
    * estimated over the t coordinates, exceeds (1 − ε)λ.
    */
  private def exactAvgRemovals(bucket: IndexedSeq[EmbeddedRec], lambda: Double, q: CPSParams): IndexedSeq[Boolean] = {
    val count = mutable.HashMap.empty[(Int, Int), Int]
    for (x <- bucket; i <- 0 until q.t) count((i, x.mh(i))) = count.getOrElse((i, x.mh(i)), 0) + 1
    bucket.map { x =>
      val sum = (0 until q.t).map(i => count((i, x.mh(i))) - 1L).sum
      sum.toDouble / q.t / (bucket.length - 1) > (1.0 - q.eps) * lambda
    }
  }

  test("selfJoin on empty and single-record inputs") {
    assert(CPSJoinLocal.selfJoinRaw(IndexedSeq.empty, 0.5, p).isEmpty)
    assert(CPSJoinLocal.selfJoinRaw(IndexedSeq(SetRec(0, Array(1, 2))), 0.5, p).isEmpty)
  }

  test("two identical records are always found") {
    val recs = IndexedSeq(SetRec(0, Array(1, 2, 3)), SetRec(1, Array(1, 2, 3)))
    val res = CPSJoinLocal.selfJoinRaw(recs, 0.9, p)
    assert(res.contains((0L, 1L)) && res((0L, 1L)) == 1.0)
  }

  test("deterministic: same seed gives the same result set") {
    val recs = TestUtil.randomRecords(200, 15, 120, seed = 21, spread = 5)
    val a = CPSJoinLocal.selfJoinRaw(recs, 0.5, p)
    val b = CPSJoinLocal.selfJoinRaw(recs, 0.5, p)
    assert(a == b)
  }

  test("repetitions accumulate: reps=1 results are a subset of reps=10") {
    val recs = TestUtil.randomRecords(300, 15, 100, seed = 22, spread = 5)
    val one = CPSJoinLocal.selfJoinRaw(recs, 0.5, p.copy(reps = 1))
    val ten = CPSJoinLocal.selfJoinRaw(recs, 0.5, p.copy(reps = 10))
    assert(one.keySet.subsetOf(ten.keySet))
  }

  test("limit >= n reduces to brute force: all clearly-similar pairs found") {
    val recs = TestUtil.randomRecords(150, 12, 60, seed = 23, spread = 3)
    val res = CPSJoinLocal.selfJoinRaw(recs, 0.5, p.copy(limit = 1000, reps = 1))
    val strong = TestUtil.bruteTruth(recs, 0.65).keySet // well above λ̂ margin
    assert(strong.subsetOf(res.keySet), s"missing ${strong.diff(res.keySet)}")
    TestUtil.assertPerfectPrecision(res, recs, 0.5)
  }

  test("maxDepth = 0 forces exact finish at the root") {
    val recs = TestUtil.randomRecords(120, 12, 60, seed = 24)
    val res = CPSJoinLocal.selfJoinRaw(recs, 0.5, p.copy(maxDepth = 0, reps = 1))
    val strong = TestUtil.bruteTruth(recs, 0.65).keySet
    assert(strong.subsetOf(res.keySet))
  }

  test("splitCoordinates is deterministic and samples ~1/λ coordinates") {
    val c1 = CPSJoinLocal.splitCoordinates(12345L, 128, 0.5)
    val c2 = CPSJoinLocal.splitCoordinates(12345L, 128, 0.5)
    assert(c1.sameElements(c2))
    val counts = (0 until 2000).map(s => CPSJoinLocal.splitCoordinates(s.toLong * 77, 128, 0.5).length)
    val avg = counts.sum.toDouble / counts.length
    assert(math.abs(avg - 2.0) < 0.2, s"expected ~1/λ = 2 coordinates, got $avg")
  }

  test("splitCoordinates samples more coordinates at lower thresholds") {
    def avgFor(lambda: Double) =
      (0 until 2000).map(s => CPSJoinLocal.splitCoordinates(s.toLong * 31, 128, lambda).length)
        .sum.toDouble / 2000
    assert(avgFor(0.5) > avgFor(0.9))
  }

  test("childSeed separates children by coordinate and value") {
    val seeds = for (c <- 0 until 10; v <- 0 until 10) yield CPSJoinLocal.childSeed(7L, c, v)
    assert(seeds.distinct.size == seeds.size)
  }

  test("Observation 2: exact-average rule removes a point similar to its bucket") {
    // Bucket: 60 near-clones (pairwise J high) + 1 far point.
    val base = (0 until 30).toArray
    val clones = (0 until 60).map(i => SetRec(i.toLong, (base :+ (100 + i)).sorted))
    val far = SetRec(999, (1000 until 1030).toArray)
    val hasher = new MinHasher(64, 4, seed = 3)
    val bucket = EmbeddedRec.embedAll((clones :+ far).toIndexedSeq, hasher).toIndexedSeq
    val pp = p.copy(limit = 10, eps = 0.0)
    val removed = exactAvgRemovals(bucket, 0.5, pp)
    val survivorIds = bucket.indices.filterNot(removed).map(bucket(_).id)
    assert(!survivorIds.exists(_ < 60L), "every clone has avg similarity > (1-ε)λ and must be removed")
    assert(survivorIds.contains(999L), "the far point must continue in the recursion")
    val sketchSurvivors = CPSJoinLocal.bruteForceStep(bucket, 0.5, pp, nodeSeed = 5L, new LocalStats, (_, _, _) => ())
    assert(sketchSurvivors.map(_.id) == survivorIds, "the sketch rule removes the same points")
  }

  test("brute-forced points report their true pairs exactly once") {
    val base = (0 until 30).toArray
    val clones = (0 until 50).map(i => SetRec(i.toLong, (base :+ (100 + i)).sorted))
    val hasher = new MinHasher(64, 4, seed = 3)
    val bucket = EmbeddedRec.embedAll(clones.toIndexedSeq, hasher).toIndexedSeq
    val pp = p.copy(limit = 10, eps = 0.0)
    val emitted = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
    CPSJoinLocal.bruteForceStep(bucket, 0.5, pp, nodeSeed = 5L, new LocalStats,
      (a, b, _) => emitted += ((math.min(a, b), math.max(a, b))))
    assert(emitted.size == emitted.distinct.size, "no duplicate pair reports within a node")
    assert(emitted.toSet == TestUtil.bruteTruth(clones, 0.5).keySet)
  }

  test("a root bucket above limit whose members all match finishes by the average-similarity rule") {
    // 300 identical sets: every estimate against ŝ is 1 > (1 − ε)λ, so the
    // root removes every point and has no survivors to split, well before
    // the depth cap.
    val recs = (0 until 300).map(i => SetRec(i.toLong, (0 until 20).toArray))
    val q = CPSParams()
    assert(recs.length > q.limit && q.maxDepth == 64)
    val bucket = EmbeddedRec.embedAll(recs, new MinHasher(q.t, q.ell, q.seed)).toIndexedSeq
    val stats = new LocalStats
    val emitted = mutable.ArrayBuffer.empty[(Long, Long)]
    val children = CPSJoinLocal.node(bucket, 0.5, q, Verification.maxDistance(0.5, q), CPSJoinLocal.rootSeed(q, 0), 0,
      stats, (a, b, _) => emitted += ((math.min(a, b), math.max(a, b))))
    assert(children.isEmpty)
    assert(emitted.size == 300 * 299 / 2 && emitted.distinct.size == emitted.size)
    assert(stats.pre == 300L * 299 / 2)
  }

  test("node's sorted split gives the children of a boxed HashMap grouping, at depths 0 and 1 on AOL ×1") {
    val q = CPSParams()
    val lambda = 0.5
    val maxD = Verification.maxDistance(lambda, q)
    val recs = Datasets.byName("AOL").gen(1.0, 7).toIndexedSeq
    val root = EmbeddedRec.embedAll(recs, new MinHasher(q.t, q.ell, q.seed)).toIndexedSeq
    val noEmit = (_: Long, _: Long, _: Double) => ()
    // Reference split: group the survivors on their minhash at each sampled
    // coordinate in a boxed HashMap; children of ≥ 2, members in bucket order.
    def reference(bucket: IndexedSeq[EmbeddedRec], seed: Long): Set[(Seq[Long], Long)] = {
      val survivors = CPSJoinLocal.bruteForceStep(bucket, lambda, q, seed, new LocalStats, noEmit)
      (for {
        c <- CPSJoinLocal.splitCoordinates(seed, q.t, lambda).toSeq
        groups = {
          val g = mutable.HashMap.empty[Int, mutable.ArrayBuffer[EmbeddedRec]]
          for (x <- survivors) g.getOrElseUpdate(x.mh(c), mutable.ArrayBuffer.empty) += x
          g
        }
        (v, child) <- groups if child.length >= 2
      } yield (child.map(_.id).toSeq, CPSJoinLocal.childSeed(seed, c, v))).toSet
    }
    def children(bucket: IndexedSeq[EmbeddedRec], seed: Long, depth: Int) =
      CPSJoinLocal.node(bucket, lambda, q, maxD, seed, depth, new LocalStats, noEmit)
    var compared = 0
    for (rep <- 0 until 2) {
      val seed = CPSJoinLocal.rootSeed(q, rep)
      val level1 = children(root, seed, 0)
      assert(level1.map { case (b, s) => (b.map(_.id).toSeq, s) }.toSet == reference(root, seed), s"rep $rep root")
      assert(level1.size == level1.map(_._2).distinct.size, "distinct child seeds")
      for ((child, childSeed) <- level1) {
        val level2 = children(child.toIndexedSeq, childSeed, 1)
        assert(level2.map { case (b, s) => (b.map(_.id).toSeq, s) }.toSet == reference(child.toIndexedSeq, childSeed))
        compared += level2.size
      }
    }
    assert(compared > 0, "some depth-1 node must split")
  }

  /** `groups`' reference: a boxed `HashMap` from minhash to the members (as
    * ids) in bucket order, groups of ≥ 2 in ascending signed minhash.
    */
  private def referenceGroups(bucket: IndexedSeq[EmbeddedRec], c: Int): Seq[Seq[Long]] = {
    val byValue = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Long]]
    for (x <- bucket) byValue.getOrElseUpdate(x.mh(c), mutable.ArrayBuffer.empty) += x.id
    byValue.toSeq.sortBy(_._1).map(_._2.toSeq).filter(_.length >= 2)
  }

  test("groups equals a HashMap reference: extreme values, all equal, all distinct, both sort paths") {
    val rng = new java.util.SplittableRandom(12)
    val extremes = Array(Int.MinValue, Int.MinValue + 1, -1, 0, 1, Int.MaxValue - 1, Int.MaxValue)
    val draws: Seq[(String, Int => Int)] = Seq(
      "extremes" -> (_ => extremes(rng.nextInt(extremes.length))),
      "extremes and few values" -> (_ => if (rng.nextBoolean()) extremes(rng.nextInt(extremes.length)) else rng.nextInt(9) - 4),
      "full range" -> (_ => rng.nextInt()),
      "one byte varies" -> (_ => 0x5a00005a | (rng.nextInt(4) << 16)),
      "top byte varies" -> (_ => (rng.nextInt(4) - 2) << 24),
      "all equal" -> (_ => -7),
      "all distinct" -> (i => i * -104729 + 3),
    )
    for ((name, draw) <- draws; n <- Seq(0, 1, 2, 3, 50, 63, 64, 65, 127, 128, 129, 300, 5000); c <- 0 to 1) {
      // Ids out of order, so the member order checked is the bucket's, not the ids'.
      val bucket = (0 until n).map(i => EmbeddedRec((i * 7919L) % 10007, Array(1), Array(draw(i), draw(i)), Array(0L)))
      val got = CPSJoinLocal.groups(bucket, c).map(_.map(_.id).toSeq).toSeq
      assert(got == referenceGroups(bucket, c), s"$name n=$n c=$c")
    }
  }

  test("bruteForceStep within limit reports the exact bucket join") {
    val recs = TestUtil.randomRecords(30, 10, 40, seed = 25)
    val hasher = new MinHasher(64, 4, seed = 3)
    val bucket = EmbeddedRec.embedAll(recs, hasher).toIndexedSeq
    val emitted = scala.collection.mutable.HashSet.empty[(Long, Long)]
    val surv = CPSJoinLocal.bruteForceStep(bucket, 0.5, p.copy(limit = 30), 1L, new LocalStats,
      (a, b, _) => emitted += ((math.min(a, b), math.max(a, b))))
    assert(surv.isEmpty)
    val strong = TestUtil.bruteTruth(recs, 0.65).keySet
    assert(strong.subsetOf(emitted))
  }

  // Recall/precision across dataset archetypes and thresholds.
  for {
    name <- Seq("DBLP", "NETFLIX", "UNIFORM005", "BMS-POS")
    lambda <- Seq(0.5, 0.7, 0.9)
  } test(s"recall >= 0.8 and precision = 1 on $name at λ=$lambda (10 reps)") {
    val recs = Datasets.byName(name).gen(scale = 0.2, seed = 31).toIndexedSeq
    val truth = TestUtil.bruteTruth(recs, lambda)
    val res = CPSJoinLocal.selfJoinRaw(recs, lambda, p)
    TestUtil.assertPerfectPrecision(res, recs, lambda)
    val rec = TestUtil.recall(res.keySet, truth.keySet)
    assert(rec >= 0.8, s"recall $rec below 0.8 (|truth|=${truth.size}, |found|=${res.size})")
  }

  test("TOKENS10K planted pairs are recovered at λ=0.8") {
    val recs = Datasets.byName("TOKENS10K").gen(scale = 0.4, seed = 31).toIndexedSeq
    val truth = TestUtil.bruteTruth(recs, 0.8)
    assert(truth.nonEmpty, "TOKENS generator must plant high-similarity pairs")
    val res = CPSJoinLocal.selfJoinRaw(recs, 0.8, p)
    val rec = TestUtil.recall(res.keySet, truth.keySet)
    assert(rec >= 0.8, s"recall $rec")
    TestUtil.assertPerfectPrecision(res, recs, 0.8)
  }

  test("stats counters are populated and ordered pre >= cand >= reported") {
    val recs = TestUtil.randomRecords(400, 15, 80, seed = 26, spread = 5)
    val stats = new LocalStats
    CPSJoinLocal.selfJoinRaw(recs, 0.5, p, stats)
    assert(stats.pre > 0)
    assert(stats.pre >= stats.cand)
    assert(stats.cand >= 0 && stats.res <= stats.cand)
  }
}
