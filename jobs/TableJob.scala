package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Tables

/** spark-submit entrypoint reproducing one table of the paper's evaluation:
  * 1 prints Table I (dataset statistics), 2 Tables II and IV (join times at
  * ≥ 90 % recall and the candidate counters of the same joins, from one
  * pass), 3 Table III (parameters and the Fig. 3 sensitivity sweep).
  * Usage: spark-submit --class repro.jobs.TableJob repro.jar <1|2|3> [scale]
  * Dataset subset via REPRO_DATASETS=AOL,DBLP,... .
  */
object TableJob {
  def main(args: Array[String]): Unit = {
    val scale = args.lift(1).map(_.toDouble).getOrElse(1.0)
    def withSpark(body: SparkSession => Unit): Unit = {
      val spark = SparkSession.builder().appName(s"repro-table${args(0)}").getOrCreate()
      try body(spark) finally spark.stop()
    }
    args.headOption match {
      case Some("1") => println(Tables.table1(scale))
      case Some("2") => withSpark { spark =>
        val (table2, table4) = Tables.table2(spark, scale)
        println(table2)
        println(table4)
      }
      case Some("3") => withSpark(spark => println(Tables.table3(spark, scale)))
      case _ =>
        Console.err.println("usage: TableJob <1|2|3> [scale]")
        sys.exit(2)
    }
  }
}
