#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 joinbench/spread.py --workloads aol-local aol-spark --seeds 10 --sets 2

Runs the benchmark once per seed (seeds 1..N unless --first-seed is given) on each
workload and prints, per metric, the median of the per-run values and the
interquartile distance of those values as a share of the median (Python's
`statistics.quantiles(values, n=4)`), next to the metric's bound in
BENCHMARK.json. With `--sets K` every run is made K times, the sets interleaved
seed by seed, and each set's median is also compared with set 1's: the change in
the worse direction, as a share of set 1's median, is flagged above the bound.
`--json FILE` also writes every run's metrics and per-call samples.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(w: str, seed: int, seconds: float) -> dict:
    """One untraced run: its metrics, its wall time and the per-call samples it lists on stderr."""
    t0 = time.time()
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - t0
    if p.returncode != 0:
        return {"seed": seed, "wall_s": wall, "exit": p.returncode}
    res = json.loads(p.stdout.strip().split("\n")[-1])
    samples = {}
    for line in p.stderr.splitlines():
        m = re.match(r"\[joinbench\] (\w+)( wall)?: (?:\d+ samples: )?([\d. ]+)", line)
        if m:
            samples[m.group(1) + (m.group(2) or "").replace(" ", "_")] = [float(x) for x in m.group(3).split()]
    return {"seed": seed, "wall_s": wall, "correct": res["correct"],
            **{k: v["value"] for k, v in res["metrics"].items()}, "samples": samples}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, help="repeat every run this many times, interleaved")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for w in args.workloads:
        runs[w] = [[] for _ in range(args.sets)]
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for k in range(args.sets):
                r = run_once(w, seed, args.seconds)
                ok = ok and r.get("correct", False)
                if "exit" in r:
                    print(f"{w} seed {seed} set {k + 1}: exit code {r['exit']}", flush=True)
                    continue
                runs[w][k].append(r)
                print(f"{w} seed {seed} set {k + 1}: {r['wall_s']:.1f} s wall, correct={r['correct']}", flush=True)
        for k, rs in enumerate(runs[w]):
            print(f"\n{w} set {k + 1}: {len(rs)} runs, median wall {statistics.median(r['wall_s'] for r in rs):.1f} s")
            print(f"  {'metric':<18}{'median':>12}{'spread':>9}{'bound':>7}{'vs set 1':>10}")
            for name, bound in bounds.items():
                vals = [r[name] for r in rs]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                flag = "" if spread <= bound / 3 else "  spread > bound/3"
                med1 = statistics.median(r[name] for r in runs[w][0])
                worse = (med - med1) / med1 * (1 if better[name] == "lower" else -1)
                if worse > bound:
                    flag += "  worse than set 1 by more than the bound"
                print(f"  {name:<18}{med:>12.5g}{spread:>9.4f}{bound:>7}{worse:>+10.4f}{flag}")
        print(flush=True)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
