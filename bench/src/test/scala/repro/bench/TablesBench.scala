package repro.bench

import repro.SparkSpec
import java.nio.file.{Files, Paths}
import java.nio.charset.StandardCharsets

/** Reproduces the paper's tables, one test each. Every test prints its table
  * and writes it to bench/results/tableN.txt for EXPERIMENTS.md. Tables II
  * (join times at ≥ 90 % recall, λ ∈ {0.5,…,0.9}) and IV (pre-candidates,
  * candidates and results at λ ∈ {0.5, 0.7}) come from one measurement
  * pass. Scale with REPRO_SCALE, dataset subset with REPRO_DATASETS.
  */
class TablesBench extends SparkSpec {
  private lazy val tables2and4 = Tables.table2(spark)

  private def write(n: Int, out: String): String = {
    println(out)
    Files.createDirectories(Paths.get("results"))
    Files.write(Paths.get(s"results/table$n.txt"), out.getBytes(StandardCharsets.UTF_8))
    out
  }

  test("Table I — dataset statistics") {
    assert(write(1, Tables.table1()).linesIterator.size > Harness.selectedDatasets.size)
  }

  test("Table II — join times at >=90% recall") {
    assert(write(2, tables2and4._1).linesIterator.size >= 2)
  }

  test("Table III — parameters and sensitivity sweep") {
    assert(write(3, Tables.table3(spark)).contains("limit"))
  }

  test("Table IV — candidate statistics") {
    assert(write(4, tables2and4._2).linesIterator.size >= 2)
  }
}
