package repro.joinbench

import org.apache.spark.scheduler._
import scala.collection.mutable

/** Spark jobs, stages and tasks of the traced calls, grouped by job group.
  * The benchmark sets a job group around each call; jobs outside a group are ignored.
  */
final class PhaseListener extends SparkListener {

  final class Phase {
    var jobs = 0L
    var stages = 0L
    var tasks = 0L
    var taskMs = 0L
    var maxTaskMs = 0L
    var shuffleReadBytes = 0L
    var shuffleWriteBytes = 0L
    val jobIntervals: mutable.ArrayBuffer[(Long, Long)] = mutable.ArrayBuffer.empty

    /** Milliseconds of [from, to] covered by at least one job. */
    def busyMs(from: Long, to: Long): Long = {
      var covered = 0L
      var reach = from
      for ((s, e) <- jobIntervals.sortBy(_._1)) {
        val start = math.max(s, reach)
        val end = math.min(e, to)
        if (end > start) { covered += end - start; reach = end }
      }
      covered
    }
  }

  private val phases = mutable.HashMap.empty[String, Phase]
  private val jobs = mutable.HashMap.empty[Int, (Phase, Long)]
  private val stages = mutable.HashMap.empty[Int, Phase]

  def phase(name: String): Phase = synchronized(phases.getOrElseUpdate(name, new Phase))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    for (props <- Option(e.properties); group <- Option(props.getProperty("spark.jobGroup.id"))) {
      val ph = phases.getOrElseUpdate(group, new Phase)
      ph.jobs += 1
      jobs(e.jobId) = (ph, e.time)
      e.stageIds.foreach(stages(_) = ph)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    for ((ph, start) <- jobs.remove(e.jobId)) ph.jobIntervals += ((start, e.time))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stages.get(e.stageInfo.stageId).foreach(_.stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (ph <- stages.get(e.stageId)) {
      ph.tasks += 1
      val ms = e.taskInfo.duration
      ph.taskMs += ms
      ph.maxTaskMs = math.max(ph.maxTaskMs, ms)
      for (m <- Option(e.taskMetrics)) {
        ph.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        ph.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }
}
