"""Run-to-run spread: run workloads once per seed and summarise each metric.

    python3 perfbench/spread.py --runs 10 [--workload camera-frames ...] [--seconds 20]

For every (workload, metric) it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the quartile distance
as a share of the median. Each run is a fresh ``run.py`` process with seed
``first_seed + i``. Raw results go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import DEFAULT_SECONDS, WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for name in args.workload or WORKLOADS:
        runs = []
        for i in range(args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.first_seed + i), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.perf_counter() - start
            result["exit"] = proc.returncode
            runs.append(result)
        record["workloads"][name] = runs
        print(f"{name}: exits {[r['exit'] for r in runs]}, failed/attempted "
              f"{[(r['failed'], r['attempted']) for r in runs]}, "
              f"longest run {max(r['wall_s'] for r in runs):.1f} s")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) < 2 or not med:
                print(f"  {metric:32s} median {med:.6g}")
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric:32s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.3f}")
        sys.stdout.flush()
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (out_dir / f"spread-{stamp}.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
