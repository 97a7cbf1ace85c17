"""Benchmark of the llt pipeline.

    python3 perfbench/run.py --workload {reproduce,law-scan,score-records}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its
`src/`. One process generates the workload's seeded inputs, then runs
identical short passes for S seconds and checks every pass's outputs.
Fresh set-up processes are spread over the passes.

--trace 0 prints the end-to-end metrics:

- beats_per_s: beats handled in a pass over the pass time. The shared
  host's speed drifts by a third over minutes, so each pass runs right
  after one round of a fixed reference mix (reference.py). The pass
  time is the median of pass / reference over the run, in seconds of a
  host on which the reference takes REFERENCE_S.
- setup_s: p10 over the fresh processes of interpreter start +
  `import llt.cli` + parsing the workload's inputs, scaled by the run's
  median reference round in the same way.
- peak_rss_mb: peak RSS of the process that runs the passes.

The info line before the result gives the unscaled values, the pass
p10 and median and the highest percentile with at least ten passes beyond it; those
follow the host and are not gated. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics: p10 seconds per layer
span, exact work counts, the pass's own time outside the spans, span
coverage and tracing overhead. The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 60


def p10(values: list[float]) -> float:
    """Nearest-rank 10th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.1 * len(ordered)) - 1)]


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of a few percentiles that has at least ten samples
    beyond it, by nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return f"p{q:g}", ordered[rank - 1]
    return None


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


class Probes:
    """Fresh set-up processes, spread evenly over a run's passes so that
    a slow minute of the host does not take all of them."""

    def __init__(self, workload: str, data: Path):
        self.cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), workload, str(data)]
        self.walls: list[float] = []
        self.timings: list[dict] = []
        self._probe()  # untimed: fills the bytecode caches

    def _probe(self) -> tuple[float, dict]:
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        return time.perf_counter() - t0, json.loads(done.stdout.strip().splitlines()[-1])

    def run_due(self, fraction: float) -> None:
        """Run every probe whose turn has come once `fraction` of the
        passes' time is over; fraction 1 runs all that are left."""
        while len(self.walls) < SETUP_PROBES and fraction >= len(self.walls) / SETUP_PROBES:
            wall, timings = self._probe()
            self.walls.append(wall)
            self.timings.append(timings)


class Run:
    """Attempted and failed passes, and the fingerprint passes must match."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.expected = None
        self.errors: list[str] = []

    def timed_pass(self) -> float | None:
        """Run and check one pass; its seconds, or None if it failed."""
        w = self.workload
        self.attempted += 1
        gc.collect()
        try:
            t0 = time.perf_counter()
            result = w.run_pass()
            seconds = time.perf_counter() - t0
            fp = w.fingerprint(result)
            errors = w.check(fp)
        except Exception as e:  # a raising pass counts as failed
            errors = [f"{type(e).__name__}: {e}"]
        else:
            if self.expected is None:
                self.expected = fp
            elif fp != self.expected:
                errors.append("outputs differ from the first pass")
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            return None
        return seconds


def untraced(run: Run, seconds: float, probes: Probes, ref):
    """Passes, each right after one round of the reference, for
    `seconds`, with the probes between them. Returns the pass times and
    each pass time over its reference round's."""
    times, ratios, elapsed = [], [], 0.0
    while elapsed < seconds:
        probes.run_due(elapsed / seconds)
        t0 = time.perf_counter()
        ref_s = ref.run()
        t = run.timed_pass()
        elapsed += time.perf_counter() - t0
        if t is not None:
            times.append(t)
            ratios.append(t / ref_s)
    probes.run_due(1.0)
    return times, ratios


def traced(run: Run, seconds: float, probes: Probes, tracing):
    """Alternate untraced and traced passes for `seconds` of pass time,
    and until one traced pass has succeeded or one pass has failed.
    Returns the untraced pass times and, per traced pass, its time,
    span seconds, top-level span seconds and work counts."""
    tracer = tracing.Tracer()
    plain, passes, elapsed = [], [], 0.0
    while elapsed < seconds or not (passes or run.failed):
        probes.run_due(elapsed / seconds)
        t0 = time.perf_counter()
        t = run.timed_pass()
        if t is not None:
            plain.append(t)
        tracer.reset()
        with tracer.patched():
            t = run.timed_pass()
        elapsed += time.perf_counter() - t0
        if t is None:
            continue
        tracer.require(run.workload.required_spans)
        counts = dict(tracer.counts)
        counts["features.rows_per_distinct_beat"] = (
            tracer.counts["features.rows"] / max(1, len(tracer.distinct_beats)))
        passes.append((t, dict(tracer.seconds), tracer.top_level_s, counts))
    probes.run_due(1.0)
    return plain, passes


def layer_metrics(run: Run, plain, passes, probes, generate_s, tracing) -> dict:
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for span in tracing.SPAN_NAMES:
        put(span, p10([s.get(span, 0.0) for _, s, _, _ in passes]), "s")
    counts = passes[0][3]
    if any(p[3] != counts for p in passes):
        run.failed += 1
        run.errors.append("work counts differ between traced passes")
    units = {"features.rows_per_distinct_beat": "ratio", "dataset_io.bytes_written": "bytes"}
    for name, value in counts.items():
        put(name, value, units.get(name, "count"))
    for name in ("setup.import_s", "setup.load_corpus_s", "setup.load_raw_signals_s",
                 "setup.load_law_s", "setup.load_model_s"):
        put(name, p10([p.get(name, 0.0) for p in probes]), "s")
    put("synth.generate_s", generate_s, "s")
    put("cli.self_s", p10([t - top for t, _, top, _ in passes]), "s")
    # coverage and overhead are read at the traced pass of p10 rank
    pass_s, _, top_s, _ = sorted(passes, key=lambda p: p[0])[
        max(0, math.ceil(0.1 * len(passes)) - 1)]
    put("trace.pass_s", pass_s, "s")
    put("trace.span_coverage", top_s / pass_s, "ratio")
    put("trace.overhead_ratio", pass_s / p10(plain), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "law-scan", "score-records"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "llt" / "__init__.py").is_file():
        sys.stderr.write(f"error: no llt package under {SRC}\n")
        return 1

    # BLAS reads its thread count when numpy is first imported
    threads = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import llt

    if Path(llt.__file__).resolve().parent != SRC / "llt":
        sys.stderr.write(f"error: imported llt from {llt.__file__}, not {SRC}\n")
        return 1
    import reference
    import tracing
    import workloads

    # on SIGTERM, unwind: subprocess.run kills and reaps a running probe,
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        t0 = time.perf_counter()
        workload.generate()
        generate_s = time.perf_counter() - t0
        probes = Probes(args.workload, workload.data)
        workload.load()
        run = Run(workload)
        run.timed_pass()  # warm-up: lazy imports and caches; checked, not timed
        if args.trace:
            times, passes = traced(run, args.seconds, probes, tracing)
        else:
            ref = reference.Reference()
            (times, ratios), passes = untraced(run, args.seconds, probes, ref), None
    except tracing.TraceCoverageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not times or passes == []:
        sys.stderr.write("error: no pass succeeded, nothing measured\n")
        return 1
    scaling = {}
    if passes:
        metrics = layer_metrics(run, times, passes, probes.timings, generate_s, tracing)
    else:
        # times in seconds of a host on which the reference takes
        # REFERENCE_S: a pass over its adjacent reference round, set-up
        # over the run's median round
        pass_s = statistics.median(ratios) * reference.REFERENCE_S
        ref_s = statistics.median(ref.times)
        scaling = {"reference_median_s": ref_s,
                   "unscaled_beats_per_s": workload.beats_per_pass / p10(times),
                   "unscaled_setup_s": p10(probes.walls)}
        metrics = {
            "beats_per_s": {"value": workload.beats_per_pass / pass_s, "unit": "1/s"},
            "setup_s": {"value": p10(probes.walls) * reference.REFERENCE_S / ref_s,
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    for err in sorted(set(run.errors)):
        sys.stderr.write(f"check failed: {err}\n")
    info = {"workload": args.workload, "seed": args.seed, "input": workload.input_size,
            "beats_per_pass": workload.beats_per_pass, "blas_threads": threads,
            "python": sys.version.split()[0], "passes_timed": len(times),
            "setup_walls_s": probes.walls,
            "pass_s": {"p10": p10(times), "median": statistics.median(times)}, **scaling}
    tail = tail_percentile(times)
    if tail:
        info["pass_s"][tail[0]] = tail[1]
    print("# " + json.dumps(info))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
