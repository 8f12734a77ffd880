#!/usr/bin/env python3
"""Traced run of the end-to-end benchmark: per-layer self time and the
tracing overhead, for each workload.

    python3 e2ebench/trace_run.py [--seed N] [--seconds T] [WORKLOAD ...]

For each workload (default: all three of BENCHMARK.json) this runs
`run.py --trace 1`, which alternates untraced rounds with rounds under an
obs::Tracer and writes the Chrome trace of one traced pass to
e2ebench/out/<workload>.trace.json (loadable in Perfetto / chrome://tracing).
It then prints:

  * every per-layer metric of BENCHMARK.json, with its unit;
  * per-layer self time, sorted: each span's duration minus what its child spans
    cover, summed over every rank and pool-thread lane of a pass (the
    benchmark's own e2e.* spans around each call, plus the program's
    engine / ghost / frontier / pool spans);
  * the tracing overhead: traced minus untraced pipeline_s;
  * tools/trace_report.py's per-lane load and per-superstep critical path
    for the written trace.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    status = 0
    for w in args.workloads:
        chrome = out / f"{w}.trace.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "1", "--chrome", str(chrome)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            print(f"{w}: run.py failed ({proc.returncode})")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"== {w}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        print("\n".join(lines[:-1]))  # every per-layer metric, with its unit
        print("per-layer self time per pass (s, all lanes):")
        selfs = sorted(((k[len("self_s."):], v) for k, v in m.items()
                        if k.startswith("self_s.")), key=lambda kv: -kv[1])
        total = sum(v for _, v in selfs) or 1.0
        for name, v in selfs:
            print(f"  {name:<24} {v:>10.4f}  {100 * v / total:5.1f}%")
        print(f"tracing overhead (traced - untraced pipeline_s): "
              f"{m['trace.overhead_s']:+.4f} s")
        print(f"trace written to {chrome.relative_to(ROOT)}")
        report = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "trace_report.py"),
             str(chrome)], stdout=subprocess.PIPE, text=True)
        print(report.stdout)
        status |= report.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
