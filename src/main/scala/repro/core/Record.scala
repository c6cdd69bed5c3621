package repro.core

import scala.collection.mutable

/** A record (set) in a similarity-join collection.
  *
  * @param id     unique record id
  * @param tokens sorted, distinct token ids from the universe [d]
  */
final case class SetRec(id: Long, tokens: Array[Int]) {
  def size: Int = tokens.length
}

object SetRec {
  /** Build a record from possibly unsorted / duplicated tokens. */
  def normalized(id: Long, tokens: Iterable[Int]): SetRec =
    SetRec(id, tokens.toArray.distinct.sorted)

  /** Rejects an input in which two records share an id, which a self-join
    * would otherwise report as the pair (id, id). O(n).
    */
  def requireDistinctIds(recs: Iterable[SetRec]): Unit = {
    val seen = mutable.HashSet.empty[Long]
    for (r <- recs) require(seen.add(r.id), s"duplicate record id ${r.id}")
  }
}

/** Exact set-overlap primitives on sorted token arrays. */
object Jaccard {

  /** |x ∩ y| via sorted-merge; O(|x| + |y|). */
  def intersectionSize(x: Array[Int], y: Array[Int]): Int = {
    var i = 0; var j = 0; var c = 0
    while (i < x.length && j < y.length) {
      if (x(i) == y(j)) { c += 1; i += 1; j += 1 }
      else if (x(i) < y(j)) i += 1
      else j += 1
    }
    c
  }

  /** Jaccard similarity |x ∩ y| / |x ∪ y| of two sorted token arrays. */
  def similarity(x: Array[Int], y: Array[Int]): Double = {
    if (x.isEmpty && y.isEmpty) return 1.0
    val inter = intersectionSize(x, y)
    inter.toDouble / (x.length + y.length - inter)
  }

  /** J(x,y) ≥ λ  ⟺  |x ∩ y| ≥ λ/(1+λ)·(|x|+|y|) — the overlap form used by
    * AllPairs-style verification (avoids recomputing the union size).
    */
  def overlapThreshold(sizeX: Int, sizeY: Int, lambda: Double): Double =
    lambda / (1.0 + lambda) * (sizeX + sizeY)
}
