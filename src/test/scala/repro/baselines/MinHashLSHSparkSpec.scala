package repro.baselines

import repro.{SparkSpec, TestUtil}
import repro.core._
import repro.data.Datasets
import scala.collection.mutable

class MinHashLSHSparkSpec extends SparkSpec {

  private val p = CPSParams(t = 64, ell = 4, seed = 17)

  test("distributed repetitions equal the local repetitions (same seeds)") {
    val recs = TestUtil.randomRecords(300, 12, 60, seed = 111, spread = 4)
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val embedded = bc.value
      val k = 3
      val local = mutable.HashMap.empty[(Long, Long), Double]
      for (r <- 0 until 5)
        MinHashLSHLocal.runRep(embedded, 0.5, k, r, p, NullStats,
          (a, b, s) => local.update((math.min(a, b), math.max(a, b)), s))
      val dist = new MinHashLSHSpark(spark, bc, 0.5, k, p).run(0 until 5)
      assert(dist.keySet == local.keySet,
        s"missing=${local.keySet.diff(dist.keySet).take(3)} extra=${dist.keySet.diff(local.keySet).take(3)}")
    } finally bc.destroy()
  }

  for ((name, lambda) <- Seq(("DBLP", 0.5), ("UNIFORM005", 0.7)))
    test(s"recall >= 0.8 and precision = 1 on $name at λ=$lambda") {
      val recs = Datasets.byName(name).gen(scale = 0.2, seed = 112).toIndexedSeq
      val truth = TestUtil.bruteTruth(recs, lambda)
      val res = MinHashLSHSpark.selfJoin(spark, recs, lambda, 0.9, p)
      TestUtil.assertPerfectPrecision(res, recs, lambda)
      assert(TestUtil.recall(res.keySet, truth.keySet) >= 0.8)
    }

  test("trivial inputs") {
    assert(MinHashLSHSpark.selfJoin(spark, IndexedSeq(SetRec(0, Array(1, 2))), 0.5, 0.9, p).isEmpty)
  }
}
