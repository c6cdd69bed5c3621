package repro.baselines

import repro.core._
import scala.collection.mutable

/** ALLPAIRS exact set similarity self-join (Bayardo et al. [9], as optimized
  * by Mann et al. [7] — the paper's exact baseline "ALL").
  *
  * Two steps, which the Spark engine shares:
  *  1. `prepare` ranks tokens by ascending global frequency (rarest first),
  *     maps every record into rank space, sorts the records by (size, id)
  *     and indexes every record under its *indexing (mid-)prefix* (the first
  *     |x| − ⌈2λ/(1+λ)·|x|⌉ + 1 tokens) in one inverted index;
  *  2. `Prober.probe(xi)` scans the inverted lists of record xi's *probing
  *     prefix* (the first |x| − ⌈λ|x|⌉ + 1 tokens) over the records before
  *     it that pass the size lower bound |y| ≥ λ|x|, and verifies each
  *     distinct one with the overlap criterion |x ∩ y| ≥ λ/(1+λ)·(|x|+|y|).
  *     Pairs and counters do not depend on which records are probed together.
  *
  * Table IV counter semantics: every inverted-list entry touched after the
  * size check is a pre-candidate; every distinct candidate pair reaching
  * verification is a candidate; verified pairs are results.
  */
object AllPairsLocal {

  /** Probing prefix length for a record of `size` tokens. */
  def probingPrefixLength(size: Int, lambda: Double): Int =
    size - math.ceil(lambda * size - 1e-9).toInt + 1

  /** Indexing (mid-)prefix length for a record of `size` tokens. */
  def indexingPrefixLength(size: Int, lambda: Double): Int =
    size - math.ceil(2.0 * lambda / (1.0 + lambda) * size - 1e-9).toInt + 1

  /** Rank tokens by ascending frequency (ties by token id) over `recs`. */
  def tokenRanks(recs: scala.collection.IndexedSeq[SetRec]): mutable.HashMap[Int, Int] = {
    val freq = mutable.HashMap.empty[Int, Int]
    for (r <- recs; tok <- r.tokens) freq.update(tok, freq.getOrElse(tok, 0) + 1)
    val ranked = freq.toArray.sortBy { case (tok, f) => (f, tok) }
    val ranks = mutable.HashMap.empty[Int, Int]
    var i = 0
    while (i < ranked.length) { ranks.update(ranked(i)._1, i); i += 1 }
    ranks
  }

  /** The read-only state of one join at threshold `lambda`. Record xi (in
    * (size, id) order) has id `ids(xi)` and the ascending token ranks
    * `tokens(xi)`. The inverted list of token rank t is
    * `entries(listStart(t) until listStart(t + 1))`: the records whose
    * indexing prefix holds t, in ascending order, so their sizes do not
    * decrease along the list.
    */
  final class Prepared(val lambda: Double, val ids: Array[Long], val tokens: Array[Array[Int]],
                       val listStart: Array[Int], val entries: Array[Int]) extends Serializable {
    def length: Int = ids.length
  }

  /** Checks the input and builds the join's rank map, (size, id) order and
    * inverted index. Rejects λ ∉ (0, 1), duplicate ids and empty sets (whose
    * prefix is empty, so no probe could pair two of them, at similarity 1).
    */
  def prepare(recs: scala.collection.IndexedSeq[SetRec], lambda: Double): Prepared = {
    Sketch.requireThreshold(lambda)
    SetRec.requireDistinctIds(recs)
    for (r <- recs) require(r.tokens.nonEmpty, s"record ${r.id} is an empty set")
    val ranks = tokenRanks(recs)
    // Rank space is a bijection, so similarities are unchanged: ascending
    // rank is the rarest-first prefix order, and the arrays stay sorted for
    // merge-based intersection.
    val sorted: Array[SetRec] = recs.iterator
      .map(r => SetRec(r.id, r.tokens.map(ranks).sorted))
      .toArray
      .sortBy(r => (r.tokens.length, r.id))
    val lists = Array.fill(ranks.size)(mutable.ArrayBuffer.empty[Int])
    for (xi <- sorted.indices; i <- 0 until indexingPrefixLength(sorted(xi).size, lambda))
      lists(sorted(xi).tokens(i)) += xi
    new Prepared(lambda, sorted.map(_.id), sorted.map(_.tokens), lists.scanLeft(0)(_ + _.length), lists.flatten)
  }

  /** Probes the records of `prep` one at a time, with overlap counters of
    * its own: one `Prober` per thread or Spark task.
    */
  final class Prober(prep: Prepared) {
    import prep._
    private val overlap = new Array[Int](length)
    private val touched = new Array[Int](length)

    /** Joins record `xi` with every record before it: emits each result pair
      * (smaller id first) with its similarity and counts into `stats`.
      */
    def probe(xi: Int, stats: LocalStats, emit: (Long, Long, Double) => Unit): Unit = {
      val x = tokens(xi)
      val sx = x.length
      val minSize = math.ceil(lambda * sx - 1e-9)
      val pp = probingPrefixLength(sx, lambda)
      var nTouched = 0
      var pi = 0
      while (pi < pp) {
        val t = x(pi)
        val end = listStart(t + 1)
        // Sizes do not decrease along a list: find the first entry within
        // the size bound by binary search, then scan the records before x.
        var li = listStart(t)
        var hi = end
        while (li < hi) {
          val mid = (li + hi) >>> 1
          if (tokens(entries(mid)).length >= minSize) hi = mid else li = mid + 1
        }
        while (li < end && entries(li) < xi) {
          val yi = entries(li)
          if (overlap(yi) == 0) { touched(nTouched) = yi; nTouched += 1 }
          overlap(yi) += 1
          stats.pre += 1
          li += 1
        }
        pi += 1
      }
      stats.cand += nTouched
      var k = 0
      while (k < nTouched) {
        val yi = touched(k)
        overlap(yi) = 0
        val y = tokens(yi)
        val inter = Jaccard.intersectionSize(x, y)
        if (inter >= Jaccard.overlapThreshold(sx, y.length, lambda) - 1e-9) {
          val sim = inter.toDouble / (sx + y.length - inter)
          if (sim >= lambda - 1e-12) {
            stats.res += 1
            emit(math.min(ids(xi), ids(yi)), math.max(ids(xi), ids(yi)), sim)
          }
        }
        k += 1
      }
    }
  }

  /** Exact self-join; returns pairs (id1 < id2) with their similarity. */
  def selfJoin(recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
               stats: LocalStats = new LocalStats): Map[(Long, Long), Double] = {
    val prep = prepare(recs, lambda)
    val prober = new Prober(prep)
    val out = Map.newBuilder[(Long, Long), Double]
    val emit = (a: Long, b: Long, s: Double) => { out += (((a, b), s)); () }
    for (xi <- 0 until prep.length) prober.probe(xi, stats, emit)
    out.result()
  }
}
