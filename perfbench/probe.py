"""Set-up probe: one fresh interpreter imports the program and parses a
workload's inputs, then prints its own timings as one JSON line.

    python3 perfbench/probe.py SRC_DIR WORKLOAD INPUT_DIR

The parent times the whole process (interpreter start included) for
`setup_s`; the printed `import_s` and per-loader seconds feed the
`setup.*` per-layer metrics. `parse_inputs` is also what the benchmark
process itself uses to load inputs, so both parse the same files the
same way.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

MODEL_KINDS = ("knn", "svm-linear", "svm-rbf", "rf", "mlp")


def parse_inputs(workload: str, directory, timings: dict | None = None) -> dict:
    """Parse the input files of `workload` found in `directory`.

    Seconds spent in each loader are added to `timings` under
    `setup.<loader>_s` when a dict is given.
    """
    from llt import dataset_io
    from llt.types import Role

    d = Path(directory)

    def timed(loader, *args, **kwargs):
        t0 = time.perf_counter()
        out = getattr(dataset_io, loader)(*args, **kwargs)
        if timings is not None:
            key = f"setup.{loader}_s"
            timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
        return out

    if workload == "reproduce":
        return {"train": timed("load_corpus", d / "train.csv", role=Role.TRAIN),
                "test": timed("load_corpus", d / "test.csv", role=Role.TEST)}
    if workload == "law-scan":
        return {"train": timed("load_corpus", d / "train.csv", role=Role.TRAIN)}
    if workload == "score-records":
        return {"signals": timed("load_raw_signals", d / "records.csv"),
                "law": timed("load_law", d / "law_normal.law"),
                "models": [timed("load_model", d / f"model_{k}.txt")
                           for k in MODEL_KINDS]}
    raise ValueError(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    src, workload, directory = argv
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import llt.cli  # noqa: F401  (the import a user of `llt` pays)
    timings = {"setup.import_s": time.perf_counter() - t0}
    parse_inputs(workload, directory, timings)
    print(json.dumps(timings))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
