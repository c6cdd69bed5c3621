#!/usr/bin/env python3
"""Seeded set-similarity-join benchmark.

    python3 joinbench/run.py --workload aol-local --seed 7 --seconds 30 --trace 0

Builds the program and the benchmark (see build.py), then runs one workload
with pinned heap, GC and thread count. The workload names come from
BENCHMARK.json; the rest of each workload is defined in Workload.scala, which
`Main --plan 1` reads out: its JVM options and, for an untraced run, the JVMs
to start. A local workload times each engine family (CP, MinHash LSH,
AllPairs) in its own JVM and the results are merged; other runs use one JVM. Progress goes to stderr, and the JSON
result is the last line of stdout. `--workload all` runs every workload,
untraced and traced, one after the other.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 170
HEAP = "2g"

# Module access the Spark runtime needs on Java 17 (what spark-submit adds).
JAVA_MODULE_OPTIONS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def run_jvm(classpath: str, workload: str, jvm_options: list, args: list, deadline: float):
    """One benchmark JVM; returns its parsed JSON result, or an exit code on failure."""
    cores = min(4, os.cpu_count() or 1)
    tmp = build.BUILD_DIR / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseSerialGC", "-XX:+UseTransparentHugePages",
           f"-XX:ActiveProcessorCount={cores}", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j.configurationFile={Path(__file__).resolve().parent / 'log4j2.properties'}"] + \
        jvm_options + JAVA_MODULE_OPTIONS + [
           "-cp", classpath, "repro.joinbench.Main", "--workload", workload] + args
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))  # Spark scratch stays in the run directory
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True, cwd=tmp, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"[joinbench] {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        # Also reached on SIGTERM/SIGINT: never leave the JVM behind.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print(f"[joinbench] {workload} exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    return json.loads(lines[-1])


def plan(classpath: str, workload: str) -> dict:
    """The workload's JVM options, and each JVM's engine families and share of the seconds
    (`Workload.planJson`)."""
    out = subprocess.run(["java", "-Xmx256m", "-cp", classpath, "repro.joinbench.Main", "--workload", workload, "--plan", "1"],
                         stdout=subprocess.PIPE, text=True, check=True, timeout=60).stdout
    return json.loads(out.strip().split("\n")[-1])


def run_one(classpath: str, workload: str, seed: int, seconds: float, trace: int) -> int:
    """One benchmark run; prints its JSON result as the last stdout line."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    jvms = plan(classpath, workload)
    common = ["--seed", str(seed), "--trace", str(trace)]
    if trace:
        parts = [run_jvm(classpath, workload, jvms["jvm_options"], common + ["--seconds", str(seconds)], deadline)]
    else:
        parts = []
        for jvm in jvms["jvms"]:
            parts.append(run_jvm(classpath, workload, jvms["jvm_options"], common + [
                "--seconds", str(seconds * jvm["share"]), "--families", ",".join(jvm["families"])], deadline))
            if isinstance(parts[-1], int):
                break
    failed = [p for p in parts if isinstance(p, int)]
    if failed:
        return failed[0]
    if len(parts) == 1:
        print(json.dumps(parts[0]), flush=True)
        return 0
    metrics = {}
    for p in parts:
        for name, value in p["metrics"].items():
            metrics.setdefault(name, value)
    attempted = sum(p["attempted"] for p in parts)
    n_failed = sum(p["failed"] for p in parts)
    metrics["ok_rate"] = {"value": (attempted - n_failed) / attempted, "unit": "ratio"}
    result = {"correct": all(p["correct"] for p in parts), "attempted": attempted, "failed": n_failed,
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    ap.add_argument("--workload", required=True, choices=workloads + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        classpath = build.build()
    except build.BuildError as e:
        print(f"[joinbench] build failed: {e}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(classpath, args.workload, args.seed, args.seconds, args.trace)
    rc = 0
    for w in workloads:
        for trace in (0, 1):
            print(f"# {w} --trace {trace}", flush=True)
            rc = run_one(classpath, w, args.seed, args.seconds, trace) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
