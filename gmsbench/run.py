"""gmsforge benchmark: verify_dense, stimulus_wide and ledger.

    python3 gmsbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 gmsbench/run.py            # every workload, untraced then traced

Each workload runs in a process of its own with one client and one thread
(workloads.py).  With --trace 0 the result line holds the end-to-end
metrics; set-up time is the median over SETUP_RUNS fresh processes, each
timed from its start to the end of its set-up.  With --trace 1 the workload
runs with every layer of gmsforge wrapped (tracing.py) and the result line
holds the per-layer metrics per op.  The last line of standard output is
one JSON object; result files go to gmsbench/results/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("verify_dense", "stimulus_wide", "ledger")
SETUP_RUNS = 5  # four set-up-only processes plus the measured one
TIMEOUT_S = 150
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s",
         "peak_rss_mib": "MiB"}


def _env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _worker(workload: str, seed: int, seconds: float, trace: int,
            setup_only: bool) -> tuple[dict, float]:
    """Run workloads.py; its result and its set-up time from process start."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - start


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), and that percentile."""
    n = len(latencies)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted(latencies)[rank - 1], pct


def measure(workload: str, seed: int, seconds: float,
            trace: int) -> tuple[dict, list[float]]:
    """One run of one workload: the result line and the op latencies."""
    setups = []
    if not trace:
        setups = [_worker(workload, seed, seconds, 0, True)[1]
                  for _ in range(SETUP_RUNS - 1)]
    result, setup = _worker(workload, seed, seconds, trace, False)
    setups.append(setup)
    lat = result["latencies"]
    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"{workload}: WRONG {problem}")
    if trace:
        metrics = result["layers"]
        print(f"{workload}: traced op_s.p50 {statistics.median(lat):.6f} s "
              f"(the untraced run's p50 gives the tracing overhead)")
    else:
        tail_s, pct = tail(lat)
        values = {"setup_s": statistics.median(setups),
                  "ops_per_s": len(lat) / sum(lat),
                  "op_s.p50": statistics.median(lat),
                  "op_s.tail": tail_s,
                  "peak_rss_mib": result["peak_rss_mib"]}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        print(f"{workload}: op_s.tail is p{pct} of {len(lat)} samples; "
              f"set-up samples {[round(s, 4) for s in setups]}")
    for name, m in metrics.items():
        print(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {correct}")
    out = {"correct": correct, "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    name = f"BENCH_{workload}{'_trace' if trace else ''}.json"
    (RESULTS / name).write_text(json.dumps(
        out | {"workload": workload, "seed": seed, "seconds": seconds,
               "latencies": lat}, indent=1) + "\n")
    return out, lat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gmsforge benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gmsforge" / "__init__.py").is_file():
        print(f"no gmsforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)[0]))
        return 0
    summary = {}
    for workload in WORKLOADS:
        plain, lat = measure(workload, args.seed, args.seconds, 0)
        traced, traced_lat = measure(workload, args.seed, args.seconds, 1)
        overhead = statistics.median(traced_lat) / statistics.median(lat) - 1
        print(f"{workload}: tracing overhead {100 * overhead:+.1f}% on op_s.p50")
        summary[workload] = {"end_to_end": plain, "per_layer": traced,
                             "tracing_overhead": overhead}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
