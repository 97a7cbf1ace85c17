"""tools/pairs.py on a stub `perfbench/run.py` that prints fixed JSON
lines: the order of sides, the summary arithmetic and claim rule, a
failing run, bytecode kept out of both checkouts, and the whole command
against a small git repository."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import pairs  # noqa: E402

# The stub imports a module of its checkout in its own interpreter and
# in a child started without -B, as run.py's set-up probes are; it logs
# its side and seed, and prints the metrics its config.json gives.
STUB = """\
import json, os, subprocess, sys
from pathlib import Path

root = Path(__file__).resolve().parents[1]
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
cfg = json.loads((root / "perfbench" / "config.json").read_text())
cache = os.environ["PYTHONPYCACHEPREFIX"]
cache_was_empty = not os.listdir(cache)
sys.path.insert(0, str(root / "src"))
import stub_mod
subprocess.run([sys.executable, "-c", "import stub_mod"], check=True,
               env=dict(os.environ, PYTHONPATH=str(root / "src")))
with open(os.environ["PAIRS_LOG"], "a") as f:
    f.write(f"{cfg['side']} {seed}\\n")
if seed == cfg.get("exit_seed"):
    sys.exit(3)
info = {"seed": seed, "side": cfg["side"], "cache": cache, "cache_was_empty": cache_was_empty,
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "env_dont_write": "PYTHONDONTWRITEBYTECODE" in os.environ}
print("# " + json.dumps(info))
print(json.dumps({"correct": seed != cfg.get("incorrect_seed"), "attempted": 10 + seed,
                  "failed": 0, "metrics": {
                      name: {"value": values[str(seed)], "unit": "x"}
                      for name, values in cfg["metrics"].items()}}))
"""

SEEDS = [1, 2, 3, 4, 5]
BETTER = {"beats_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"}
METRICS = {
    "parent": {"beats_per_s": [100, 104, 101, 108, 103],
               "setup_s": [0.30, 0.31, 0.32, 0.33, 0.34],
               "peak_rss_mb": [50, 50, 50, 50, 50]},
    "change": {"beats_per_s": [110, 103, 115, 120, 112],
               "setup_s": [0.20, 0.21, 0.22, 0.23, 0.24],
               "peak_rss_mb": [50, 49, 50, 50, 51]},
}


def _side(root: Path, side: str, **extra) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "perfbench" / "run.py").write_text(STUB)
    (root / "src" / "stub_mod.py").write_text("VALUE = 1\n")
    metrics = {name: {str(s): v for s, v in zip(SEEDS, values)}
               for name, values in METRICS[side].items()}
    config = {"side": side, "metrics": metrics, **extra}
    (root / "perfbench" / "config.json").write_text(json.dumps(config))
    return root


@pytest.fixture
def log(tmp_path, monkeypatch):
    path = tmp_path / "log.txt"
    monkeypatch.setenv("PAIRS_LOG", str(path))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    return path


@pytest.fixture
def roots(tmp_path):
    return {side: _side(tmp_path / side, side) for side in pairs.SIDES}


def test_sides_alternate_and_the_summary_arithmetic(roots, log):
    runs = pairs.run_pairs(roots, ["law-scan"], SEEDS, 1, 0)
    assert log.read_text().split("\n")[:-1] == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3",
        "change 4", "parent 4", "parent 5", "change 5"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs[:4]] == [
        (0, "parent", "parent"), (0, "change", "parent"),
        (1, "change", "change"), (1, "parent", "change")]
    summary = pairs.summarize(runs, BETTER)["law-scan"]
    assert summary["seeds"] == SEEDS and summary["pairs"] == 5
    beats = summary["beats_per_s"]
    # parent 100 101 103 104 108, change 103 110 112 115 120; 104 -> 103 loses
    assert beats["parent_median"] == 103 and beats["parent_quartiles"] == [101, 104]
    assert beats["change_median"] == 112 and beats["change_quartiles"] == [110, 115]
    assert beats["change_better_in_pairs"] == 4 and not beats["claim_rule_holds"]
    setup = summary["setup_s"]
    assert setup["parent_median"] == pytest.approx(0.32)
    assert setup["parent_quartiles"] == pytest.approx([0.31, 0.33])
    assert setup["change_median"] == pytest.approx(0.22)
    assert setup["change_better_in_pairs"] == 5 and setup["claim_rule_holds"]
    rss = summary["peak_rss_mb"]
    assert rss["change_better_in_pairs"] == 1 and not rss["claim_rule_holds"]
    assert summary["attempted"] == {"parent": 65, "change": 65}
    assert summary["failed"] == {"parent": 0, "change": 0}


@pytest.mark.parametrize("change, better, holds", [
    ([11] * 9 + [9], "higher", True),  # 9 of 10, median 11 - 10 > IQR 0
    ([11] * 8 + [9, 9], "higher", False),  # 8 of 10
    ([11] * 8 + [10, 9], "higher", False),  # a tie counts for neither side
    ([9] * 9 + [11], "lower", True),
    ([11] * 10, "lower", False),
])
def test_claim_rule_on_wins(change, better, holds):
    assert pairs.claim_holds([10] * 10, change, better) is holds


def test_claim_rule_needs_a_gap_beyond_the_parent_quartiles():
    parent = [10, 12, 14, 16, 18]  # quartiles 12 and 16
    assert pairs.claim_holds(parent, [15, 17, 19, 21, 23], "higher")  # 19 - 14 > 4
    assert not pairs.claim_holds(parent, [14, 16, 18, 20, 22], "higher")  # 18 - 14 = 4


@pytest.mark.parametrize("fault, side, seed, pair, why", [
    ("exit_seed", "change", 2, 1, "exit 3"),
    ("incorrect_seed", "parent", 3, 2, '"correct" is not true'),
])
def test_a_failing_run_names_side_seed_and_pair(tmp_path, log, fault, side, seed, pair, why):
    roots = {s: _side(tmp_path / s, s, **({fault: seed} if s == side else {}))
             for s in pairs.SIDES}
    with pytest.raises(pairs.RunFailed,
                       match=f"^law-scan pair {pair} \\(seed {seed}\\), {side} side: {why}$"):
        pairs.run_pairs(roots, ["law-scan"], SEEDS, 1, 0)


def test_no_bytecode_in_either_checkout(roots, log):
    runs = pairs.run_pairs(roots, ["law-scan", "reproduce"], [1, 2], 1, 0)
    for root in roots.values():
        assert not list(root.rglob("*.pyc")) and not list(root.rglob("__pycache__"))
    infos = [r["info"] for r in runs]
    assert all(i["dont_write_bytecode"] and i["cache_was_empty"] and not i["env_dont_write"]
               for i in infos)
    assert len({i["cache"] for i in infos}) == len(runs) == 8
    assert not any(Path(i["cache"]).exists() for i in infos)


def test_the_command_writes_its_file(tmp_path, log, monkeypatch, capsys):
    repo = _side(tmp_path / "repo", "parent")
    (repo / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 3,
        "end_to_end": [{"name": n, "better": b} for n, b in BETTER.items()],
        "per_layer": []}))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run(git + args, check=True)
    sha = subprocess.run(git + ["rev-parse", "HEAD"], check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    config = Path("perfbench", "config.json")
    (repo / config).write_text((_side(tmp_path / "c", "change") / config).read_text())
    monkeypatch.setattr(pairs, "ROOT", repo)
    out = tmp_path / "BENCH.json"
    assert pairs.main([sha, "--workload", "law-scan", "--seeds", "1-3",
                       "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["parent_commit"] == sha and "--seconds 3 " in doc["command"]
    assert [(r["seed"], r["side"], r["info"]["side"]) for r in doc["runs"]] == [
        (1, "parent", "parent"), (1, "change", "change"), (2, "change", "change"),
        (2, "parent", "parent"), (3, "parent", "parent"), (3, "change", "change")]
    assert doc["summary"]["law-scan"]["beats_per_s"]["change_better_in_pairs"] == 2
    assert set(doc["host"]) == {"cpus", "python", "numpy", "scipy"}
    assert ("law-scan beats_per_s: parent 101, change 110, change better in 2 of 3 pairs; "
            "the claim rule does not hold") in capsys.readouterr().out


def test_seeds():
    assert pairs.parse_seeds("11-14") == [11, 12, 13, 14]
    assert pairs.parse_seeds("7") == [7]
