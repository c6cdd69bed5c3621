package repro

import repro.baselines.{MinHashLSHLocal, MinHashLSHSpark}
import repro.core._
import repro.data.Datasets

/** Golden Table IV counters (pre-candidates, candidates, results) and
  * distinct pairs of both approximate joins on both engines, for AOL ×1,
  * seed 7, λ = 0.5 and `CPSParams()`. A change that moves any of them changes
  * what the joins compute or how they count it.
  */
class TableIVCountersSpec extends SparkSpec {

  private val p = CPSParams()
  private val lambda = 0.5
  private lazy val recs = Datasets.byName("AOL").gen(1.0, 7).toIndexedSeq

  private def counts(join: LocalStats => Map[(Long, Long), Double]): (Long, Long, Long, Int) = {
    val stats = new LocalStats
    val pairs = join(stats)
    (stats.pre, stats.cand, stats.res, pairs.size)
  }

  test("CPSJoin: golden counters on AOL ×1, seed 7, λ = 0.5, both engines") {
    val golden = (861865L, 37863L, 30575L, 3582)
    assert(counts(s => CPSJoinLocal.selfJoinRaw(recs, lambda, p, s)) == golden, "local")
    assert(counts(s => CPSJoinSpark.selfJoin(spark, recs, lambda, p, s)) == golden, "spark")
  }

  test("MinHash LSH: golden counters on AOL ×1, seed 7, λ = 0.5, k = 3, 19 repetitions, both engines") {
    val embedded = EmbeddedRec.embedAll(recs, new MinHasher(p.t, p.ell, p.seed)).toIndexedSeq
    val k = MinHashLSHLocal.chooseK(embedded, lambda, 0.9, p.seed)
    assert(k == 3 && MinHashLSHLocal.repetitionsFor(0.9, lambda, k) == 19)
    val golden = (147027L, 12904L, 11095L, 3401)
    assert(counts(s => MinHashLSHLocal.selfJoin(embedded, lambda, 0.9, p, s)) == golden, "local")
    assert(counts(s => MinHashLSHSpark.selfJoin(spark, recs, lambda, 0.9, p, s)) == golden, "spark")
  }
}
