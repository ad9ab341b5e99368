"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = (
    "simulate.steps", "simulate.returned", "simulate.exploded", "simulate.censored",
    "drift.cube_scans", "drift.small_set_calls", "drift.bytes_computed",
    "cubic.calls_per_cell", "cli.bytes_written",
)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_and_passes_its_checks(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=False, size_name="tiny")
    assert result["failures"] == []
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in result["metrics"].values())
    assert result["host_factor"] > 0 and all(v > 0 for v in result["unscaled"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric_with_repeatable_counts(name):
    first, second = (run.run_workload(name, seed=5, seconds=0, trace=True, size_name="tiny") for _ in range(2))
    assert first["failures"] == [] and second["failures"] == []
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for key in EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key], key


def test_traced_counts_see_the_work_of_each_workload():
    sweep = run.run_workload("mc_sweep", seed=5, seconds=0, trace=True, size_name="tiny")["metrics"]
    n = WORKLOADS["mc_sweep"].sizes["tiny"]["replicas"]
    # 9 sweep/ecdf points replayed in-process, plus the gallery's scan.
    assert sweep["simulate.returned"] + sweep["simulate.exploded"] + sweep["simulate.censored"] > 9 * n
    assert sweep["experiments.parallel_eff"] > 0 and sweep["drift.cube_scans"] == 0
    analytics = run.run_workload("analytics", seed=5, seconds=0, trace=True, size_name="tiny")["metrics"]
    assert analytics["drift.cube_scans"] == 1  # the tiny point's first epsilon is clean
    assert analytics["drift.bytes_computed"] == 8 * 201**3
    assert analytics["simulate.steps"] == 0 and analytics["cubic.calls_per_cell"] > 0


# ---------------------------------------------------------------------------
# Deliberately wrong outputs are caught
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine outputs of each checked command at tiny sizes."""
    out = tmp_path_factory.mktemp("outputs")
    sweep = ["--fix", "a=3,c=-15", "--replicas", "2000", "--jobs", "1", "--seed", "9"]
    workloads.run_cli(["sweep", *sweep, "--sweep", "b=0,0.5,1,1.5,2,3,4", "--out", str(out / "s")])
    workloads.run_cli(["ecdf", *sweep, "--sweep", "b=0.9,4", "--out", str(out / "e")])
    workloads.run_cli(["gallery", "-a", "3", "-b", "1.1", "-c", "-15", "--want", "2", "--seed", "9",
                       "--out", str(out / "g")])
    workloads.run_cli(["drift", "-a", "1.9", "-b", "-4.61", "-c", "-9.49", "--out", str(out / "d.json")])
    workloads.run_cli(["grid", "--a-values", "0.5,3", "--b-range=-3:2", "--c-range=-3:2", "--step", "0.5",
                       "--out", str(out / "grid")])
    return {name: json.loads((out / f"{name}.json").read_text()) for name in ("s", "e", "g", "d", "grid")}


def _checks(o: dict) -> dict[str, list[str]]:
    return {
        "sweep": workloads.check_sweep(o["s"]["rows"], workloads.SWEEP_B, 2000),
        "ecdf": workloads.check_ecdf(o["e"]["curves"], workloads.ECDF_B, 2000, 10_000, o["s"]["rows"]),
        "gallery": workloads.check_gallery(o["g"], 2, 30),
        "drift": workloads.check_drift(o["d"], (1.9, -4.61, -9.49)),
        "grid": workloads.check_grid(o["grid"]["cells"], 0.5, 2),
    }


def test_genuine_outputs_pass(outputs):
    assert _checks(outputs) == {k: [] for k in ("sweep", "ecdf", "gallery", "drift", "grid")}


def _explode_at_b0(o):
    row = o["s"]["rows"][0]
    row["exploded"], row["proportion"] = 1, 1 / row["N"]


def _flip_grid_verdict(o):
    cell = next(c for c in o["grid"]["cells"] if c["verdict"] == "Unknown")
    cell["verdict"] = "ErgodicDiscNegative"


def _swap_grid_rule(o):
    # Same verdict, decided by another rule.
    cell = next(c for c in o["grid"]["cells"] if "(boundary_b=" in c["rule"])
    cell["rule"] = "conjectured ergodic: b <= 1, c < 0 and Disc < 0"


def _atom_below_b1(o):
    curve = o["e"]["curves"][next(k for k in o["e"]["curves"] if float(k) == 0.9)]
    curve[-1][1] = 0.999
    curve.append([10_001, 1.0])


def _drop_gallery_onset(o):
    o["g"]["entries"][0]["alternation_onset"] = None


def _loosen_epsilon(o):
    o["d"]["epsilon"] = 0.25


@pytest.mark.parametrize(
    "corrupt, check",
    [
        (_explode_at_b0, "sweep"),
        (_flip_grid_verdict, "grid"),
        (_swap_grid_rule, "grid"),
        (_atom_below_b1, "ecdf"),
        (_drop_gallery_onset, "gallery"),
        (_loosen_epsilon, "drift"),
    ],
)
def test_wrong_output_is_caught(outputs, corrupt, check):
    doctored = copy.deepcopy(outputs)
    corrupt(doctored)
    assert _checks(doctored)[check]


def test_failed_operation_counts_against_the_run(monkeypatch):
    monkeypatch.setitem(workloads.GRID_EXPECTED, 0.5, ({("Unknown", "no rule applies"): 242}, {0: 242}))
    result = run.run_workload("analytics", seed=1, seconds=0, trace=False, size_name="tiny")
    assert [f["op"] for f in result["failures"]] == ["grid"]
    assert result["attempted"] == 2


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mc_sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
