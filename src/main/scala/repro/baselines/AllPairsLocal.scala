package repro.baselines

import repro.core._
import scala.collection.mutable

/** ALLPAIRS exact set similarity self-join (Bayardo et al. [9], as optimized
  * by Mann et al. [7] — the paper's exact baseline "ALL").
  *
  * Pipeline:
  *  1. rank tokens by ascending global frequency (rarest first);
  *  2. sort each record's tokens by that rank and the records by size;
  *  3. for each record x in size order, scan the inverted lists of its
  *     *probing prefix* (the first |x| − ⌈λ|x|⌉ + 1 tokens), accumulating
  *     overlap counts against previously indexed records that pass the size
  *     lower bound |y| ≥ λ|x|;
  *  4. verify candidates with the overlap criterion
  *     |x ∩ y| ≥ λ/(1+λ)·(|x|+|y|);
  *  5. index x under its *indexing prefix* (the first
  *     |x| − ⌈2λ/(1+λ)·|x|⌉ + 1 tokens).
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

  /** Exact self-join; returns pairs (id1 < id2) with their similarity. */
  def selfJoin(recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
               stats: LocalStats = new LocalStats): Map[(Long, Long), Double] = {
    require(lambda > 0 && lambda < 1)
    SetRec.requireDistinctIds(recs)
    if (recs.length < 2) return Map.empty
    val ranks = tokenRanks(recs)
    // Map every record into rank space (bijective, so similarities are
    // unchanged): ascending rank = rarest-first prefix order, and the arrays
    // stay sorted for merge-based intersection. Records sorted by size, id.
    val sorted: Array[SetRec] = recs.iterator
      .map(r => SetRec(r.id, r.tokens.map(ranks).sorted))
      .toArray
      .sortBy(r => (r.tokens.length, r.id))

    // token-rank -> list of (recordIndex); record sizes along a list are
    // non-decreasing, so the size filter advances a start pointer.
    val index = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    val listStart = mutable.HashMap.empty[Int, Int]
    val out = Map.newBuilder[(Long, Long), Double]

    val overlapCount = mutable.HashMap.empty[Int, Int]
    var xi = 0
    while (xi < sorted.length) {
      val x = sorted(xi)
      val sx = x.tokens.length
      val minSize = math.ceil(lambda * sx - 1e-9)
      overlapCount.clear()
      val pp = probingPrefixLength(sx, lambda)
      var pi = 0
      while (pi < pp) {
        val tok = x.tokens(pi)
        index.get(tok) match {
          case Some(list) =>
            var li = listStart.getOrElse(tok, 0)
            // skip permanently the indexed records that are now too small
            while (li < list.length && sorted(list(li)).tokens.length < minSize) li += 1
            listStart.update(tok, li)
            while (li < list.length) {
              val yi = list(li)
              stats.pre += 1
              overlapCount.update(yi, overlapCount.getOrElse(yi, 0) + 1)
              li += 1
            }
          case None => ()
        }
        pi += 1
      }
      for ((yi, _) <- overlapCount) {
        stats.cand += 1
        val y = sorted(yi)
        val inter = Jaccard.intersectionSize(x.tokens, y.tokens)
        if (inter >= Jaccard.overlapThreshold(sx, y.tokens.length, lambda) - 1e-9) {
          val sim = inter.toDouble / (sx + y.tokens.length - inter)
          if (sim >= lambda - 1e-12) {
            stats.res += 1
            out += (((math.min(x.id, y.id), math.max(x.id, y.id)), sim))
          }
        }
      }
      val ip = indexingPrefixLength(sx, lambda)
      var ii = 0
      while (ii < ip) {
        val tok = x.tokens(ii)
        index.getOrElseUpdate(tok, mutable.ArrayBuffer.empty) += xi
        ii += 1
      }
      xi += 1
    }
    out.result()
  }
}
