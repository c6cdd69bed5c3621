package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.data.Datasets
import repro.util.Hashing
import repro.util.Hashing.Tabulation64
import java.util.SplittableRandom
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger
import scala.jdk.CollectionConverters._

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

  /** n records with ids 0 until n whose sizes swing from 2 000 tokens down
    * to 1 within each block, and by block, so blocks finish out of order.
    */
  private def skewed(n: Int, seed: Long): IndexedSeq[SetRec] = {
    val rng = new SplittableRandom(seed)
    val B = EmbeddedRec.Block
    IndexedSeq.tabulate(n) { i =>
      val size = if ((i / B) % 3 == 0) math.max(1, 2000 - 8 * (i % B)) else 1 + rng.nextInt(40)
      SetRec(i.toLong, rng.ints(size.toLong * 2, 0, Int.MaxValue).distinct().limit(size.toLong).toArray.sorted)
    }
  }

  private def liveWorkers: Set[String] =
    Thread.getAllStackTraces.keySet.asScala.map(_.getName).filter(_.startsWith(EmbeddedRec.WorkerPrefix)).toSet

  /** A view of `recs` that records which threads read it, and can throw `boom`
    * on the `failOnRead`-th read of index `failAt`.
    */
  private final class Watched(recs: IndexedSeq[SetRec], failAt: Int = -1, failOnRead: Int = 0,
                              boom: RuntimeException = null) extends IndexedSeq[SetRec] {
    val readers: java.util.Set[String] = ConcurrentHashMap.newKeySet[String]()
    private val reads = new AtomicInteger(0)
    def length: Int = recs.length
    def apply(i: Int): SetRec = {
      readers.add(Thread.currentThread.getName)
      if (i == failAt && reads.incrementAndGet() == failOnRead) throw boom
      recs(i)
    }
  }

  test("embedAll equals a serial embed of every record, in input order, for every block boundary") {
    val B = EmbeddedRec.Block
    for (seed <- Seq(7L, -3L); n <- Seq(0, 1, B - 1, B, B + 1, 10 * B + 3)) {
      val recs = skewed(n, seed)
      val hasher = new MinHasher(32, 2, seed)
      val emb = EmbeddedRec.embedAll(recs, hasher)
      withClue(s"seed=$seed n=$n: ") {
        assert(emb.length == n)
        for ((e, r) <- emb.zip(recs)) {
          val (mh, sk) = hasher.embed(r.tokens)
          assert(e.id == r.id && (e.tokens eq r.tokens))
          assert(e.mh.sameElements(mh) && e.sketch.sameElements(sk), s"record ${r.id}")
        }
        assert(liveWorkers.isEmpty)
      }
    }
  }

  test("embedAll runs below two blocks on the caller alone and otherwise on at most availableProcessors threads") {
    val B = EmbeddedRec.Block
    val hasher = new MinHasher(8, 1, 1)
    val cores = Runtime.getRuntime.availableProcessors
    for (n <- Seq(1, B, B + 1, 10 * B + 3)) {
      val watched = new Watched(skewed(n, 5))
      EmbeddedRec.embedAll(watched, hasher)
      val threads = watched.readers.asScala.toSet
      withClue(s"n=$n, threads ${threads.mkString(", ")}: ") {
        assert(threads.contains(Thread.currentThread.getName))
        val workers = threads - Thread.currentThread.getName
        assert(workers.forall(_.startsWith(EmbeddedRec.WorkerPrefix)))
        assert(threads.size <= math.min(cores, (n + B - 1) / B))
        if (n <= B) assert(workers.isEmpty)
        assert(liveWorkers.isEmpty)
      }
    }
  }

  test("embedAll reports an empty set on the caller, whichever block holds it, after any duplicate id") {
    val B = EmbeddedRec.Block
    val n = 10 * B + 3
    val recs = TestUtil.randomRecords(n, 5, 1000, seed = 8)
    val hasher = new MinHasher(16, 1, 2)
    for (at <- Seq(0, n / 2, 7 * B - 1, n - 1); call <- 1 to 20) {
      val withEmpty = recs.updated(at, SetRec(at.toLong, Array.empty[Int]))
      val e = intercept[IllegalArgumentException](EmbeddedRec.embedAll(withEmpty, hasher))
      assert(e.getMessage == "requirement failed: cannot embed an empty set", s"empty set at $at, call $call")
      assert(liveWorkers.isEmpty, s"empty set at $at, call $call")
    }
    val both = recs.updated(1, SetRec(1, Array.empty[Int])).updated(n - 1, SetRec(3, Array(1, 2)))
    val e = intercept[IllegalArgumentException](EmbeddedRec.embedAll(both, hasher))
    assert(e.getMessage == "requirement failed: duplicate record id 3")
    assert(liveWorkers.isEmpty)
  }

  test("a failure inside a block reaches the caller unwrapped, with every worker joined") {
    val B = EmbeddedRec.Block
    val recs = TestUtil.randomRecords(10 * B + 3, 5, 1000, seed = 9)
    val hasher = new MinHasher(16, 1, 2)
    // The two serial checks read every index once each; the third read is the embedding's.
    for (at <- Seq(0, 5 * B + 7, 10 * B + 2)) {
      val boom = new IllegalStateException(s"read of $at failed")
      val e = intercept[IllegalStateException](EmbeddedRec.embedAll(new Watched(recs, at, 3, boom), hasher))
      assert(e eq boom, s"failure at $at")
      assert(liveWorkers.isEmpty, s"failure at $at")
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
