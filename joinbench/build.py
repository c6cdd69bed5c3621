#!/usr/bin/env python3
"""Build file of the join benchmark.

Compiles the program (`src/main/scala`) together with the benchmark sources
(`joinbench/src`) with the Scala compiler shipped in the Spark distribution,
into `.bench_build/joinbench/<source hash>/classes`. A build whose sources are
unchanged is reused. Usage: `python3 joinbench/build.py` prints the classpath.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "joinbench" / "src"]
BUILD_DIR = ROOT / ".bench_build" / "joinbench"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars directory of the Spark distribution (SPARK_HOME, else spark-submit on PATH)."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home or "") / "jars"
    if not home or not any(jars.glob("scala-compiler-*.jar")):
        raise BuildError("no Spark distribution with a Scala compiler: set SPARK_HOME")
    return jars


def sources() -> list:
    for d in SOURCE_DIRS:
        if not d.is_dir():
            raise BuildError(f"missing source directory {d.relative_to(ROOT)}")
    found = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not found:
        raise BuildError("no Scala sources")
    return found


def build() -> str:
    """Compile if needed; return the runtime classpath."""
    jars = spark_jars()
    files = sources()
    digest = hashlib.sha256(str(jars.resolve()).encode())
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    out = BUILD_DIR / digest.hexdigest()[:16]
    classes = out / "classes"
    classpath = f"{classes}{os.pathsep}{jars}/*"
    if classes.is_dir():
        return classpath
    for old in BUILD_DIR.glob("*"):  # builds of other sources
        if old.is_dir() and len(old.name) == 16 and old != out:
            shutil.rmtree(old, ignore_errors=True)
    tmp = out / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    print(f"[joinbench] compiling {len(files)} sources into {classes.relative_to(ROOT)}", file=sys.stderr)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in files]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed")
    tmp.rename(classes)
    return classpath


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[joinbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
