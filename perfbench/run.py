"""Benchmark entry point: run one workload, or all four one after another.

    python3 perfbench/run.py --workload landmark-stream --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

A single workload runs in this process; its last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the five
end-to-end metrics, or with ``--trace 1`` the per-layer ones). Progress and
check failures go to stderr. The exit code is 0 only when every output
matched its reference. ``handwave`` is imported from ``src/`` of the checkout
this file sits in, never from an installed copy.
"""

from __future__ import annotations

import os

# One thread, for numpy's BLAS too; set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
DEFAULT_SECONDS = 25  # run_seconds in BENCHMARK.json
WORKLOADS = ("landmark-stream", "camera-frames", "palm-auth", "corpus-eval")


def load_workload(name: str):
    """The workload's class, from the module named after it."""
    return importlib.import_module(name.replace("-", "_")).Workload


def in_scratch_dir(name: str, job):
    """``job(tmp)`` with a fresh directory for the workload's files, removed after."""
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch_root))
    try:
        return job(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it


def run_one(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload in this process; its extra set-ups run in child processes."""
    import harness
    child = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])

    def setup_elsewhere() -> tuple[float, float]:
        proc = subprocess.run(child, stdout=subprocess.PIPE, text=True, check=True)
        times = json.loads(proc.stdout.splitlines()[-1])
        return times["setup_s"], times["import_s"]

    return in_scratch_dir(name, lambda tmp: harness.run_workload(
        load_workload(name), tmp, seed, seconds, trace, setup_elsewhere,
        tiny=tiny, log=sys.stderr))


def setup_once(name: str, seed: int, tiny: bool) -> dict:
    """Time one set-up of the workload in this process."""
    import harness

    def job(tmp):
        _, _, setup_s, import_s = harness.time_setup(load_workload(name), tmp, seed, tiny)
        return {"setup_s": setup_s, "import_s": import_s}

    return in_scratch_dir(name, job)


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        result = results[name]
        if result is None:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(results))
    ok = all(r is not None and r["correct"] and r["failed"] == 0 for r in results.values())
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload (all four, one after another, when omitted)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long the timed phase repeats whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer self times and counts instead")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of --workload and print its times")
    args = parser.parse_args(argv)
    if not (SRC / "handwave" / "__init__.py").is_file():
        print(f"error: no handwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        print(json.dumps(setup_once(args.workload, args.seed, args.tiny)))
        return 0
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
