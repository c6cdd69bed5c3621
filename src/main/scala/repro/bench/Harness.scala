package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.baselines._
import repro.data.Datasets
import scala.collection.mutable

/** Measurement harness for the paper's evaluation protocol (§VI):
  *
  *  - ground truth (and the exact baseline's join time) comes from the
  *    distributed ALLPAIRS join;
  *  - approximate methods run repetition batches until measured recall
  *    against the ground truth reaches the target (default 90 %), exactly as
  *    in the paper; preprocessing (MinHash embedding + sketches, broadcast)
  *    is excluded from join times, as are the driver-side recall
  *    computations between batches;
  *  - join times are wall-clock seconds around the join dataflows only.
  */
object Harness {

  final case class AlgoRun(seconds: Double, recall: Double, reps: Int,
                           results: Int, pre: Long = 0L, cand: Long = 0L)

  final case class Measurement(dataset: String, lambda: Double,
                               cp: AlgoRun, mh: AlgoRun, all: AlgoRun)

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Exact join: result pairs, counters, and join time. */
  def runAllPairs(spark: SparkSession, recs: IndexedSeq[SetRec], lambda: Double): (Map[(Long, Long), Double], AlgoRun) = {
    val ((pairs, pre, cand), secs) = time(AllPairsSpark.selfJoinCollect(spark, recs, lambda))
    (pairs, AlgoRun(secs, 1.0, 1, pairs.size, pre, cand))
  }

  /** Repeat an approximate method in batches until recall ≥ target.
    * `runBatch` executes the given repetition indices and returns their
    * (deduplicated within the batch) result pairs.
    */
  def repeatToRecall(truth: Set[(Long, Long)], target: Double, batches: Seq[Seq[Int]],
                     runBatch: Seq[Int] => Map[(Long, Long), Double]): AlgoRun = {
    val found = mutable.HashSet.empty[(Long, Long)]
    var secs = 0.0
    var reps = 0
    var recall = if (truth.isEmpty) 1.0 else 0.0
    val it = batches.iterator
    while (recall < target && it.hasNext) {
      val batch = it.next()
      val (res, s) = time(runBatch(batch))
      secs += s
      reps += batch.size
      found ++= res.keys
      recall = if (truth.isEmpty) 1.0 else truth.count(found.contains).toDouble / truth.size
    }
    AlgoRun(secs, recall, reps, found.size)
  }

  /** Repetition batches: front-loaded so cheap joins stop early. */
  def repBatches(maxReps: Int, first: Int = 4, next: Int = 3): Seq[Seq[Int]] = {
    val out = mutable.ArrayBuffer.empty[Seq[Int]]
    var start = 0
    var size = first
    while (start < maxReps) {
      val end = math.min(maxReps, start + size)
      out += (start until end)
      start = end
      size = next
    }
    out.toSeq
  }

  /** Full Table II-style measurement of one (dataset, λ) cell. */
  def measure(spark: SparkSession, name: String, recs: IndexedSeq[SetRec], lambda: Double,
              p: CPSParams = CPSParams(), recallTarget: Double = 0.9,
              maxReps: Int = 20): Measurement = {
    val (truthPairs, allRun) = runAllPairs(spark, recs, lambda)
    val truth = truthPairs.keySet

    // Preprocessing (embedding + broadcast) is shared and untimed.
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val (cpStats, cpCounts) = AccumStats.create(spark, s"cp-$name-$lambda")
      val cpJoin = new CPSJoinSpark(spark, bc, lambda, p, cpStats)
      val cp0 = repeatToRecall(truth, recallTarget, repBatches(maxReps), reps => cpJoin.run(reps))
      val (cpPre, cpCand, _) = cpCounts()
      val cp = cp0.copy(pre = cpPre, cand = cpCand)

      val k = MinHashLSHLocal.chooseK(bc.value, lambda, recallTarget, p.seed)
      val lWorst = MinHashLSHLocal.repetitionsFor(recallTarget, lambda, k)
      val mhJoin = new MinHashLSHSpark(spark, bc, lambda, k, p)
      val mhBatchSize = math.max(1, lWorst / 4)
      val mhBatches = (0 until 4 * lWorst).grouped(mhBatchSize).map(_.toSeq).toSeq
      val mh = repeatToRecall(truth, recallTarget, mhBatches, reps => mhJoin.run(reps))

      Measurement(name, lambda, cp, mh, allRun)
    } finally bc.destroy()
  }

  /** Table II cell measured with the single-threaded local engines — the
    * same algorithms without Spark's fixed per-job overhead, comparable to
    * the paper's single-core C++ setup. The protocol is identical: exact
    * ground truth from AllPairs, approximate methods repeated until recall ≥
    * target, preprocessing untimed.
    */
  def measureLocal(name: String, recs: IndexedSeq[SetRec], lambda: Double,
                   p: CPSParams = CPSParams(), recallTarget: Double = 0.9,
                   maxReps: Int = 20): Measurement = {
    val (truthPairs, allSecs) = time(AllPairsLocal.selfJoin(recs, lambda))
    val truth = truthPairs.keySet
    val all = AlgoRun(allSecs, 1.0, 1, truthPairs.size)

    val hasher = new MinHasher(p.t, p.ell, p.seed) // preprocessing, untimed
    val embedded = EmbeddedRec.embedAll(recs, hasher).toIndexedSeq

    def cpBatch(reps: Seq[Int]): Map[(Long, Long), Double] = {
      val out = mutable.HashMap.empty[(Long, Long), Double]
      val emit = (a: Long, b: Long, s: Double) => { out.update((math.min(a, b), math.max(a, b)), s); () }
      reps.foreach(r => CPSJoinLocal.runRep(embedded, lambda, p, r, NullStats, emit))
      out.toMap
    }
    val cp = repeatToRecall(truth, recallTarget, repBatches(maxReps), cpBatch)

    val k = MinHashLSHLocal.chooseK(embedded, lambda, recallTarget, p.seed)
    val lWorst = MinHashLSHLocal.repetitionsFor(recallTarget, lambda, k)
    def mhBatch(reps: Seq[Int]): Map[(Long, Long), Double] = {
      val out = mutable.HashMap.empty[(Long, Long), Double]
      val emit = (a: Long, b: Long, s: Double) => { out.update((math.min(a, b), math.max(a, b)), s); () }
      reps.foreach(r => MinHashLSHLocal.runRep(embedded, lambda, k, r, p, NullStats, emit))
      out.toMap
    }
    val mhBatchSize = math.max(1, lWorst / 4)
    val mhBatches = (0 until 4 * lWorst).grouped(mhBatchSize).map(_.toSeq).toSeq
    val mh = repeatToRecall(truth, recallTarget, mhBatches, mhBatch)

    Measurement(name, lambda, cp, mh, all)
  }

  /** Environment knobs shared by bench suites and jobs. */
  def scale: Double = sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)
  def datasetFilter: Option[Set[String]] =
    sys.env.get("REPRO_DATASETS").map(_.split(",").map(_.trim.toUpperCase).toSet)
  def selectedDatasets: IndexedSeq[Datasets.DatasetDef] =
    datasetFilter.fold(Datasets.all)(f => Datasets.all.filter(d => f.contains(d.name.toUpperCase)))
}
