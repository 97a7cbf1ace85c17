"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads ...]
                                    [--seconds S] [--out FILE]

Runs `run.py --trace 0` once per workload and seed, one run at a time,
from the current directory (a checkout root). For each workload and
metric it prints the median of the runs and the spread: the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median. With --out the runs, spreads, input sizes and
host facts are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    import numpy

    blas = numpy.show_config("dicts")["Build Dependencies"]["blas"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    summary = {"host": {"nproc": len(os.sched_getaffinity(0)),
                        "cpu": platform.processor() or platform.machine(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "blas": {k: blas.get(k) for k in ("name", "version",
                                                          "openblas configuration")},
                        "seconds_per_run": args.seconds, "seeds": args.seeds}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=600)
            *_, info, last = done.stdout.strip().splitlines()
            result = json.loads(last)
            if not result["correct"]:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            run_info = json.loads(info[2:])
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()},
                         "unscaled_beats_per_s": run_info["unscaled_beats_per_s"],
                         "unscaled_setup_s": run_info["unscaled_setup_s"],
                         "reference_median_s": run_info["reference_median_s"]})
            print(workload, json.dumps(runs[-1]), flush=True)
        summary[workload] = {"input": run_info["input"],
                             "blas_threads": run_info["blas_threads"]}
        for name in bounds:
            values = [r[name] for r in runs]
            summary[workload][name] = {"median": statistics.median(values),
                                       "spread": spread(values), "bound": bounds[name]}
            print(f"{workload:14s} {name:12s} median {statistics.median(values):10.4g} "
                  f"spread {spread(values):.4f} (bound {bounds[name]})", flush=True)
        for name in ("unscaled_beats_per_s", "unscaled_setup_s"):
            values = [r[name] for r in runs]
            summary[workload][name] = {"median": statistics.median(values),
                                       "spread": spread(values)}
        summary[workload]["runs"] = runs
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
