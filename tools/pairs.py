"""Paired benchmark runs of a base commit and this checkout.

    python3 tools/pairs.py BASE_SHA --workload W [--workload W ...] --seeds 11-20
                           [--seconds S] [--trace 0|1] --out BENCH_<n>.json

The parent side is the base commit's `src` and `perfbench`, unpacked by
`tools/identity.py`'s `unpack`, so it runs its own `perfbench/run.py` on
its own `src`; the change side is this checkout. For each workload and
seed, one pair runs `perfbench/run.py --seed SEED` once on each side,
one process at a time. Pair i of a workload runs the parent first when
i is even and the change first when it is odd, so that neither side
always gets the host's later minutes. `--seconds` defaults to
`BENCHMARK.json`'s `run_seconds`; `--seeds` takes a range, `11-20`,
or one seed.

Both sides start alike. Each run's interpreter is started with `-B`,
with PYTHONPYCACHEPREFIX set to an empty directory of its own and
without PYTHONDONTWRITEBYTECODE. So no run reads bytecode that an
earlier run compiled, no `.pyc` file is written into either checkout,
and the set-up probes that `run.py` starts compile `llt` once, into
that directory, as they would on any host.

The output file holds the host, every run's info and result lines as
`run.py` printed them, and, per workload and metric, a summary: each
side's median and quartiles (inclusive method), the number of pairs in
which the change was better by `BENCHMARK.json`'s direction (ties count
for neither), and whether `claim_holds`. For each end-to-end metric it
also stores how much worse the change's median is than the parent's, as
a fraction of the parent's (negative where it is better), and whether
that stays within the metric's `bound` in `BENCHMARK.json`: the
no-regression half of the gate. It also sums each side's failed and
attempted passes. A run that exits non-zero, prints no result
or reports `"correct": false` stops the tool with exit 1, naming the
side, the seed and the pair, and no file is written. The tool claims
nothing itself: it prints, per metric, whether the rule holds and,
per end-to-end metric, whether the change stays within its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from identity import unpack

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


class RunFailed(Exception):
    """A benchmark run exited non-zero, printed no result or was not correct."""


def parse_seeds(text: str) -> list[int]:
    """The seeds of a range `11-20`, or of one seed `7`."""
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seed in {text!r}")
    return seeds


def order(pair: int) -> tuple[str, str]:
    """The sides in the order pair `pair` runs them."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run from `root`: its exit status, wall
    seconds, and its info and result lines parsed as JSON (None where
    the line is missing)."""
    cmd = [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    with tempfile.TemporaryDirectory(prefix="pycache-") as cache:
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=root, env=dict(env, PYTHONPYCACHEPREFIX=cache),
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
    lines = done.stdout.splitlines()

    def parse(line: str | None) -> dict | None:
        try:
            return json.loads(line)
        except (TypeError, ValueError):
            return None

    return {"exit": done.returncode, "wall_s": round(wall, 1),
            "info": parse(lines[-2][2:] if len(lines) > 1 and lines[-2][:2] == "# " else None),
            "result": parse(lines[-1] if lines else None)}


def failure(run: dict) -> str | None:
    """Why a run of `run_once` failed, or None if it did not."""
    if run["exit"]:
        return f"exit {run['exit']}"
    if not isinstance(run["result"], dict):
        return "no result line"
    if run["result"].get("correct") is not True:
        return '"correct" is not true'
    return None


def run_pairs(roots: dict[str, Path], workloads: list[str], seeds: list[int],
              seconds: float, trace: int) -> list[dict]:
    """Every run, in run order, of each workload's pairs on the sides
    `roots` ({"parent": root, "change": root}); raises RunFailed at
    the first run that fails."""
    runs = []
    for workload in workloads:
        for pair, seed in enumerate(seeds):
            sides = order(pair)
            for side in sides:
                run = run_once(roots[side], workload, seed, seconds, trace)
                why = failure(run)
                if why:
                    raise RunFailed(f"{workload} pair {pair} (seed {seed}), {side} side: {why}")
                runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                             "first": sides[0], "trace": trace, **run})
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, median and third quartile, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is better; a tie counts for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def claim_holds(parent: list[float], change: list[float], better: str) -> bool:
    """The claim rule: the change is better in at least nine tenths of
    the pairs, and its median is better than the parent's by more than
    the distance between the parent's quartiles."""
    q1, median, q3 = quartiles(parent)
    gap = statistics.median(change) - median
    if better != "higher":
        gap = -gap
    return 10 * wins(parent, change, better) >= 9 * len(parent) and gap > q3 - q1


def worse_by(parent_median: float, change_median: float, better: str) -> float:
    """How much worse the change's median is than the parent's, as a
    fraction of the parent's; negative where it is better."""
    gap = parent_median - change_median if better == "higher" else change_median - parent_median
    return gap / parent_median


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per workload of `runs`, its seeds and pair count, the summary of
    each metric that `better` gives a direction for, with the
    no-regression check of each metric that `bounds` gives a bound for,
    and each side's failed and attempted passes."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by = {(r["pair"], r["side"]): r["result"] for r in mine}
        pairs = sorted({r["pair"] for r in mine})
        entry = {"seeds": [r["seed"] for r in mine if r["side"] == "parent"],
                 "pairs": len(pairs)}
        for name in by[pairs[0], "parent"]["metrics"]:
            if name not in better:
                continue
            values = {side: [by[i, side]["metrics"][name]["value"] for i in pairs]
                      for side in SIDES}
            (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in SIDES)
            entry[name] = {
                "better": better[name],
                "parent_median": pm, "parent_quartiles": [p1, p3],
                "change_median": cm, "change_quartiles": [c1, c3],
                "change_over_parent": cm / pm if pm else None,
                "change_better_in_pairs": wins(values["parent"], values["change"], better[name]),
                "claim_rule_holds": claim_holds(values["parent"], values["change"], better[name]),
            }
            if name in bounds:
                worse = worse_by(pm, cm, better[name])
                entry[name].update(bound=bounds[name], change_worse_by=worse,
                                   within_bound=worse <= bounds[name])
        for count in ("failed", "attempted"):
            entry[count] = {side: sum(by[i, side][count] for i in pairs) for side in SIDES}
        summary[workload] = entry
    return summary


def host() -> dict:
    """The CPUs this process may run on, and the Python, numpy and scipy
    versions."""
    return {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="BASE_SHA")
    parser.add_argument("--workload", action="append", required=True,
                        choices=("reproduce", "law-scan", "score-records"))
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    base = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                           args.base + "^{commit}"], stdout=subprocess.PIPE, text=True)
    if base.returncode:
        return 1
    sha = base.stdout.strip()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="pairs-") as work:
        if not unpack(ROOT, sha, Path(work)):
            return 1
        try:
            runs = run_pairs({"parent": Path(work), "change": ROOT}, args.workload, args.seeds,
                             seconds, args.trace)
        except RunFailed as e:
            sys.stderr.write(f"error: {e}\n")
            return 1
    summary = summarize(runs, better, bounds)
    doc = {
        "parent_commit": sha,
        "command": (f"python3 -B perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                    f"--trace {args.trace}, from the root of each side (the parent unpacked "
                    f"by git archive, the change this checkout), each run with "
                    f"PYTHONPYCACHEPREFIX an empty directory of its own"),
        "order": "one run at a time; pair i of a workload runs the parent first when i "
                 "is even, the change first when it is odd",
        "rule": "claim_rule_holds: the change better in at least 9 of 10 pairs, ties "
                "counting for neither, and its median better than the parent's by more "
                "than the distance between the parent's quartiles (inclusive method); "
                "within_bound: the change's median worse than the parent's by no more "
                "than the end-to-end metric's bound, as a fraction of the parent's",
        "host": host(),
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for workload, entry in summary.items():
        for name, s in entry.items():
            if isinstance(s, dict) and "claim_rule_holds" in s:
                line = (f"{workload} {name}: parent {s['parent_median']:.6g}, change "
                        f"{s['change_median']:.6g}, change better in "
                        f"{s['change_better_in_pairs']} of {entry['pairs']} pairs; the claim "
                        f"rule {'holds' if s['claim_rule_holds'] else 'does not hold'}")
                if "within_bound" in s:
                    line += (f"; worse by {100 * s['change_worse_by']:.1f} %, "
                             f"{'within' if s['within_bound'] else 'outside'} its "
                             f"{100 * s['bound']:g} % bound")
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
