#!/usr/bin/env python3
"""End-to-end benchmark of the hpcgraph pipeline (see e2ebench/README.md).

    python3 e2ebench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 e2ebench/run.py --selftest

Run from the repository root.  Builds e2e_bench from source (CMake, Release)
under $CARGO_TARGET_DIR (default .bench_build), writes the workload's edge
files from --seed, runs rounds of pipeline passes over them for --seconds,
and prints each metric with its unit.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Exit status is non-zero, with no result line, when the
benchmark cannot be built or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
JOBS = "4"
# Input graphs per run.  k-core on one generated web graph takes either
# about 0.45x or about 1.1x of its mean, depending on the seed (see
# README.md), so a run measures many graphs and reports the mean of their
# medians.
GRAPHS = 32


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "e2ebench"


def build(out):
    """Configure (once) and build e2e_bench; returns the binary path."""
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", str(out), "--target", "e2e_bench",
                    "-j", JOBS], check=True, stdout=sys.stderr, timeout=800)
    return out / "e2e_bench"


def median(values):
    return statistics.median(values) if values else 0.0


def least_stolen(graph, name):
    """The graph's samples of `name` from the passes during which the host
    stole the least CPU time (all of them when nothing was stolen).  The
    rank and pool threads run in lockstep on every vCPU, so a vCPU the host
    takes away stalls all of them: a pass with steal can read 1.5x slower."""
    values, steal = graph.get(name, []), graph.get("host_steal_s", [])
    if len(steal) != len(values):  # traced-round series
        return values
    least = min(steal)
    return [v for v, s in zip(values, steal) if s <= least + 1e-9]


def metric_values(doc, trace):
    """Metric name -> value from one e2e_bench run document: for each graph
    the median over its least-stolen passes, then the mean over the run's
    graphs."""
    graphs = doc["graphs"]

    def agg(name, pick=median):
        return statistics.fmean(pick(least_stolen(g, name)) for g in graphs)

    names = sorted({name for g in graphs for name in g})
    if not trace:
        vals = {name: agg(name) for name in names
                if name.endswith("_s") and "." not in name}
        vals["setup_s"] = doc["setup_s"]  # one cold set-up per process
        vals["remote_bytes"] = agg("remote_bytes", lambda v: v[0])
        vals["peak_rss_mb"] = doc["peak_rss_mb"]
        return vals
    vals = {name: agg(name) for name in names}
    vals["trace.overhead_s"] = agg("traced.pipeline_s") - agg("pipeline_s")
    return vals


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chrome", help="traced runs: write the Chrome trace of "
                    "one traced pass here")
    ap.add_argument("--selftest", action="store_true",
                    help="run the output checks' own test and exit")
    args = ap.parse_args()

    spec = json.loads(SPEC.read_text())
    out = build_dir()
    binary = build(out)
    if args.selftest:
        return subprocess.run([str(binary), "selftest"], timeout=600).returncode
    if args.workload is None:
        ap.error("--workload is required")

    # The program's only inputs: GRAPHS seeded edge files, written fresh.
    graph = "er" if args.workload.startswith("er-") else "web"
    data = out / "data"
    data.mkdir(exist_ok=True)
    files = []
    for i in range(GRAPHS):
        seed = args.seed * GRAPHS + i
        path = data / f"{graph}-seed{seed}.bin"
        tmp = path.with_suffix(".tmp")
        subprocess.run([str(binary), "gen", "--workload", args.workload,
                        "--seed", str(seed), "--out", str(tmp)],
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        tmp.replace(path)
        files.append(path)

    cmd = [str(binary), "run", "--workload", args.workload,
           "--files", ",".join(map(str, files)),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.chrome:
        cmd += ["--chrome", args.chrome]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 120)
    if proc.returncode != 0:
        log(f"e2e_bench exited with {proc.returncode}")
        return 1
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    for path in files:
        path.unlink()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = metric_values(doc, args.trace)
    metrics = {}
    for m in wanted:
        v = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:<36} {v:>16.6g} {m['unit']}")
    print(f"{'passes':<36} {doc['passes']:>16}")
    print(f"{'run wall s':<36} {time.monotonic() - t0:>16.3f}")
    print(f"{'check s':<36} {doc['check_s']:>16.3f}")
    print(f"{'host steal s (diagnostic)':<36} {doc['host_steal_s']:>16.2f}")
    for op, err in doc["errors"].items():
        print(f"FAILED {op}: {err}")
    result = {"correct": doc["failed"] == 0,
              "attempted": doc["attempted"],
              "failed": doc["failed"],
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
