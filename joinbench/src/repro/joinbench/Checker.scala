package repro.joinbench

import repro.core.{Jaccard, SetRec}
import scala.collection.mutable

/** Correctness gate behind `ok_rate`.
  *
  * The exact pair set is computed once per process, untimed, by an inverted
  * index that counts the overlap of every pair sharing a token. That is a
  * different algorithm from the prefix filter of the AllPairs engines, so the
  * two check each other. Every join call goes through `call`, which counts it
  * as attempted and as failed when it throws or its output breaks a check:
  *
  *  - every pair (a, b) has a < b, names two input records, and reports
  *    exactly `Jaccard.similarity` of their tokens, which is at least λ
  *    (the result is a map keyed by the pair, so no pair appears twice);
  *  - exact engines report exactly the true pair set;
  *  - CPSJoin, on either engine, reports exactly the pair set of
  *    `CPSJoinLocal.selfJoin` for the same parameters.
  *
  * Recall is not gated: a recall dip shows as a lower `*_recall` metric.
  */
final class Checker(recs: IndexedSeq[SetRec], lambda: Double) {
  type Pairs = Map[(Long, Long), Double]

  private val tokens: Map[Long, Array[Int]] = recs.iterator.map(r => r.id -> r.tokens).toMap
  require(tokens.size == recs.length, "duplicate record ids in the generated input")

  val truth: Set[(Long, Long)] = Checker.exactPairs(recs, lambda)

  var attempted = 0
  var failed = 0
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def okRate: Double = (attempted - failed).toDouble / attempted

  /** Problems with one join output, or None. `expected` is the exact pair set it must equal. */
  def problems(out: Pairs, expected: Option[Set[(Long, Long)]]): Option[String] = {
    val bad = out.iterator.collectFirst {
      case ((a, b), s) if !(a < b) => s"pair ($a, $b) is not ordered"
      case ((a, b), _) if !tokens.contains(a) || !tokens.contains(b) => s"pair ($a, $b) names an unknown record"
      case ((a, b), s) if Jaccard.similarity(tokens(a), tokens(b)) != s =>
        s"pair ($a, $b) reports $s, exact similarity is ${Jaccard.similarity(tokens(a), tokens(b))}"
      case ((a, b), s) if !(s >= lambda) => s"pair ($a, $b) has similarity $s < λ"
    }
    bad.orElse(expected.flatMap { want =>
      if (out.size == want.size && out.keysIterator.forall(want.contains)) None
      else {
        val missing = want.count(p => !out.contains(p))
        Some(s"pair set differs from the expected one: ${out.size} reported, ${want.size} expected, $missing missing")
      }
    })
  }

  /** Run one join call under the gate; returns its output if it passed. */
  def call(label: String, expected: => Option[Set[(Long, Long)]])(join: => Pairs): Option[Pairs] = {
    attempted += 1
    val verdict =
      try {
        val out = join
        problems(out, expected).map(p => s"$label: $p").toLeft(out)
      } catch { case e: Exception => Left(s"$label threw $e") }
    verdict match {
      case Right(out) => Some(out)
      case Left(why) =>
        failed += 1
        if (failures.length < 10) failures += why
        System.err.println(s"[joinbench] CHECK FAILED $why")
        None
    }
  }

  def recall(out: Pairs): Double =
    if (truth.isEmpty) 1.0 else truth.count(out.contains).toDouble / truth.size
}

object Checker {

  /** All pairs with Jaccard ≥ λ, by overlap counting on an inverted index. */
  def exactPairs(recs: IndexedSeq[SetRec], lambda: Double): Set[(Long, Long)] = {
    val postings = mutable.HashMap.empty[Int, Postings]
    val overlap = new Array[Int](recs.length)
    val touched = new Array[Int](recs.length)
    val out = Set.newBuilder[(Long, Long)]
    var i = 0
    while (i < recs.length) {
      var nTouched = 0
      for (tok <- recs(i).tokens) {
        val list = postings.getOrElseUpdate(tok, new Postings)
        var p = 0
        while (p < list.size) {
          val j = list.items(p)
          if (overlap(j) == 0) { touched(nTouched) = j; nTouched += 1 }
          overlap(j) += 1
          p += 1
        }
        list.add(i)
      }
      var k = 0
      while (k < nTouched) {
        val j = touched(k)
        val c = overlap(j).toDouble
        // c / (|x| + |y| − c) ≥ λ, kept in multiplied form.
        if (c >= lambda * (recs(i).size + recs(j).size - c)) {
          val (a, b) = (recs(i).id, recs(j).id)
          out += ((math.min(a, b), math.max(a, b)))
        }
        overlap(j) = 0
        k += 1
      }
      i += 1
    }
    out.result()
  }
}

/** Growable list of record indexes for one token. */
private final class Postings {
  var items: Array[Int] = new Array[Int](4)
  var size: Int = 0
  def add(i: Int): Unit = {
    if (size == items.length) items = java.util.Arrays.copyOf(items, 2 * size)
    items(size) = i
    size += 1
  }
}
