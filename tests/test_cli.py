import argparse
import csv
import io
import itertools
import json
import math
import random
import re
import shlex
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from dhawkes import cli, cubic
from dhawkes.cli import build_parser, main, write_csv, write_json
from dhawkes.classify import classify_p3, grid_values
from dhawkes.experiments import GridCell, SweepRow, SweepSpec, Table, sweep_explosion
from dhawkes.model import Params, intensity
from dhawkes.simulate import SimConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_reference_point(capsys):
    code, out, _ = run(["classify", "-p", "3", "-a", "2.5", "-b", "-1", "-c", "-3"], capsys)
    assert code == 0
    assert "verdict=ErgodicDiscNegative" in out
    assert "disc=-188.25" in out
    assert "alpha_q=0.8126039858" in out


def test_classify_oscillating_point(capsys):
    code, out, _ = run(["classify", "-p", "3", "-a", "-1", "-b", "1.1", "-c", "0.5"], capsys)
    assert code == 0
    assert "verdict=TransientOscillating" in out


@pytest.mark.parametrize("argv, root", [(["-a", "0", "-b=-1e-8", "-c", "0"], "0.0"),
                                        (["-a", "0.001", "-b=-1e-6", "-c", "1e-12"], "1.001001e-06")])
def test_classify_monotone_band_point_prints_one_real_root(argv, root, capsys):
    # on the Disc = 0 band with a^2 + 3b < 0: one real root, not the complex pair's real parts
    code, out, _ = run(["classify", *argv], capsys)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("real_roots=")] == [f"real_roots=[{root}]"]


def test_classify_p2(capsys):
    code, out, _ = run(["classify", "-p", "2", "-a", "0.4", "-b", "0.4"], capsys)
    assert code == 0
    assert "verdict=ErgodicGeneralP" in out


def test_classify_malformed_number_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-p", "3", "-a", "oops", "-b", "1", "-c", "1"])
    assert exc.value.code == 2


def test_classify_rejects_nonpositive_lam(capsys):
    # lam = 0 used to run with lam = 1 while the echo said 0
    code, _, err = run(["classify", "-a", "0.1", "-b", "0.1", "-c", "0.1", "--lam", "0"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_config_null_lam_rejected(tmp_path, capsys):
    cfg = tmp_path / "null.json"
    cfg.write_text(json.dumps({"command": "classify", "lam": None}))
    code, _, err = run(["classify", "--config", str(cfg), "-a", "0.1", "-b", "0.1", "-c", "0.1"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_simulate_writes_trajectory(tmp_path, capsys):
    out_path = tmp_path / "traj.csv"
    code, _, err = run(
        ["simulate", "-p", "3", "-a", "-1", "-b", "-1", "-c", "1.1",
         "--length", "100", "--seed", "7", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "step,count"
    assert len(lines) == 101


MAX_THRESHOLD = str(2**63 - 1)


def test_simulate_max_threshold_follows_burst(capsys):
    # the burst at (8, 8, -121) drives the mean past numpy's Poisson limit
    # (~9.2e18) before a count crosses 2^63 - 1
    code, out, err = run(
        ["simulate", "-p", "3", "-a", "8", "-b", "8", "-c", "-121", "--threshold", MAX_THRESHOLD,
         "--length", "200", "--seed", "7"],
        capsys,
    )
    assert code == 0, err
    assert int(out.splitlines()[-1].split(",")[1]) > 2**63 - 1
    assert "explosion threshold crossed" in err


def _trajectory(seed, capsys):
    code, out, err = run(
        ["simulate", "-a", "3", "-b", "1", "-c", "-15", "--seed", str(seed), "--length", "60"], capsys
    )
    assert code == 0, err
    return out


def test_simulate_seeds_keyed_exactly(capsys):
    # -1 is 2^64 - 1, not 0; seeds above 2^63 keep their low bits
    assert _trajectory(-1, capsys) != _trajectory(0, capsys)
    assert _trajectory(2**63 + 5, capsys) != _trajectory(2**63 + 6, capsys)
    assert _trajectory(-1, capsys) == _trajectory(2**64 - 1, capsys)


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_sweep_jobs_below_one_exits_2(jobs, capsys):
    code, out, err = run(
        ["sweep", "--fix", "a=3,c=-15", "--sweep", "b=0", "--replicas", "10", "--jobs", jobs], capsys
    )
    assert code == 2
    assert out == ""
    assert "jobs must be >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--fix", "a=0.5,c=0", "--sweep", "b=0", "--lam", "1e300", "--replicas", "20", "--jobs", "1"],
        ["sweep", "--fix", "a=0.5,c=0", "--sweep", "b=0", "--lam", "6e299", "--replicas", "20", "--jobs", "1"],
        ["ecdf", "--fix", "a=0.5,c=0", "--sweep", "b=0", "--lam", "6e299", "--replicas", "300", "--jobs", "2"],
        ["gallery", "-a", "0.5", "-b", "0", "-c", "0", "--lam", "1e300", "--want", "1"],
    ],
    ids=["sweep-lam", "sweep-stationary-mean", "ecdf-pooled", "gallery"],
)
def test_baseline_reaching_the_overflow_guard_exits_2(argv, tmp_path, capsys):
    # classify calls (0.5, 0, 0) ergodic; its counts used to pass 1e300 and "certify escape"
    _, out, _ = run(["classify", "-a", "0.5", "-b", "0", "-c", "0", "--lam", "1e300"], capsys)
    assert "verdict=ErgodicGeneralP" in out
    code, out, err = run(argv + ["--horizon", "50", "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "baseline alone" in err
    assert list(tmp_path.iterdir()) == []


def test_gallery_cap_zero_exits_2(tmp_path, capsys):
    code, out, err = run(
        ["gallery", "-a", "3", "-b", "4", "-c", "-15", "--cap", "0", "--out", str(tmp_path / "g")],
        capsys,
    )
    assert code == 2
    assert "replica_cap must be >= 1" in err
    assert not (tmp_path / "g.csv").exists()


def test_sweep_max_threshold_exits_0(capsys):
    code, out, err = run(
        ["sweep", "--fix", "b=8,c=-121", "--sweep", "a=8", "--threshold", MAX_THRESHOLD,
         "--replicas", "50", "--jobs", "1"],
        capsys,
    )
    assert code == 0, err
    assert out.startswith("a=8 exploded=")


def test_sweep_writes_csv_and_json(tmp_path, capsys):
    base = tmp_path / "sweep"
    code, out, _ = run(
        ["sweep", "--fix", "a=3,c=-15", "--sweep", "b=0:4:2", "--replicas", "300",
         "--seed", "42", "--horizon", "500", "--jobs", "1", "--out", str(base)],
        capsys,
    )
    assert code == 0
    csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 4  # header + 3 points
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert len(data["rows"]) == 3
    assert data["rows"][0]["swept_value"] == 0.0


def _sweep_argv(base, values="0", replicas=200):
    return ["sweep", "--fix", "a=3,c=-15", "--sweep", f"b={values}", "--replicas", str(replicas),
            "--seed", "42", "--horizon", "2000", "--jobs", "1", "--out", str(base)]


def test_sweep_csv_roundtrip_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(_sweep_argv(p1, "0,4", 500), capsys)[0] == 0
    assert run(_sweep_argv(p2, "0,4", 500), capsys)[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "swept_value,exploded,N,proportion,ci_lower,ci_upper,mean_tau_returned,censored"


def test_sweep_json_mirror(tmp_path, capsys):
    assert run(_sweep_argv(tmp_path / "rows"), capsys)[0] == 0
    spec = SweepSpec(
        fixed={"a": 3.0, "c": -15.0}, sweep_name="b", values=(0.0,), replicas=200,
        sim=SimConfig(horizon_n=2000, master_seed=42), jobs=1,
    )
    rows = sweep_explosion(spec)
    loaded = json.loads((tmp_path / "rows.json").read_text())
    assert loaded["rows"][0]["exploded"] == rows[0].exploded
    assert loaded["replicas"] == 200
    assert loaded["master_seed"] == 42


def _rule(v):
    """The CSV formatting rule, stated independently of the writer."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def test_write_csv_formatting_rule(tmp_path):
    path = tmp_path / "rule.csv"
    write_csv(str(path), ["float", "bool", "none", "int"], [[0.1, True, None, 7]])
    assert path.read_text() == "float,bool,none,int\n0.10000000000000001,1,,7\n"


@pytest.mark.parametrize(
    "argv, key",
    [
        (["sweep", "--fix", "a=3,c=-15", "--sweep", "b=0,1.1,4", "--replicas", "300",
          "--seed", "3", "--horizon", "500", "--jobs", "1"], "rows"),
        (["grid", "--a-values", "0.5,3", "--b-range=-1.5:1", "--c-range=-1:0.5",
          "--step", "0.5"], "cells"),
    ],
    ids=["sweep", "grid"],
)
def test_csv_rows_match_json_mirror(argv, key, tmp_path, capsys):
    base = tmp_path / "out"
    code, _, err = run(argv + ["--out", str(base)], capsys)
    assert code == 0, err
    with open(tmp_path / "out.csv", newline="", encoding="utf-8") as f:
        header, *lines = list(csv.reader(f))
    mirror = json.loads((tmp_path / "out.json").read_text())[key]
    assert len(lines) == len(mirror) > 1
    for line, obj in zip(lines, mirror):
        assert sorted(obj) == sorted(header)
        assert line == [_rule(obj[name]) for name in header]


def test_ecdf_close_values_write_one_file_each(tmp_path, capsys):
    # 1 and 1.0000001 agree to 6 digits; each curve file is named by its mirror key
    code, out, err = run(
        ["ecdf", "--fix", "a=3,c=-15", "--sweep", "b=1,1.0000001", "--replicas", "50",
         "--jobs", "1", "--horizon", "200", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 0, err
    assert "2 curves" in out
    curves = json.loads((tmp_path / "x.json").read_text())["curves"]
    assert sorted(curves) == ["1", "1.0000001000000001"]
    assert {p.name for p in tmp_path.glob("x_*.csv")} == {f"x_b{key}.csv" for key in curves}
    for key, points in curves.items():
        with open(tmp_path / f"x_b{key}.csv", newline="", encoding="utf-8") as f:
            header, *lines = list(csv.reader(f))
        assert header == ["tau", "cumulative_fraction"]
        assert lines == [[_rule(v) for v in pt] for pt in points]


_ECHO_RUNS = {
    "classify": ["-p", "2", "-a", "0.4", "-b", "0.4", "--lam", "2"],
    "simulate": ["-a", "3", "-b", "1", "-c", "-15", "--seed", "7", "--length", "40", "--out", "o.csv"],
    "sweep": ["--fix", "a=3,c=-15", "--sweep", "b=2,4", "--replicas", "200", "--seed", "9",
              "--horizon", "400", "--jobs", "1", "--out", "o"],
    "ecdf": ["--fix", "a=3,c=-15", "--sweep", "b=0.9,4", "--replicas", "200", "--seed", "9",
             "--horizon", "400", "--jobs", "1", "--out", "o"],
    "gallery": ["-a", "3", "-b", "4", "-c", "-15", "--want", "2", "--prefix", "10", "--horizon", "500",
                "--seed", "11", "--out", "o"],
    "drift": ["-a", "2.5", "-b", "-1", "-c", "-3", "--radius", "40", "--out", "o.json"],
    "grid": ["--a-values", "0.5,3", "--b-range=-1.5:1", "--c-range=-1:0.5", "--step", "0.5", "--out", "o"],
}


@pytest.mark.parametrize("command", list(_ECHO_RUNS))
def test_config_echo_roundtrip(command, tmp_path, capsys, monkeypatch):
    # re-running from the echoed configuration, in another directory, gives the
    # same exit code, output and files, the echo among them
    echo = tmp_path / "first" / "echo.json"
    results = []
    for name, args in (("first", _ECHO_RUNS[command]), ("again", ["--config", str(echo)])):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code, out, err = run([command, *args, "--echo-config", "echo.json"], capsys)
        files = {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}
        results.append((code, out, err, files))
    assert results[0][0] == 0, results[0][2]
    assert results[0] == results[1]


def _subparser(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("command", list(cli.DEFAULTS))
def test_every_config_key_has_a_flag_and_a_shape(command, tmp_path, capsys):
    dests = {action.dest for action in _subparser(command)._actions}
    cfg = tmp_path / "cfg.json"
    for key in cli.DEFAULTS[command]:
        assert key in dests
        cfg.write_text(json.dumps({key: {"x": []}}))  # the wrong shape for every key
        code, out, err = run([command, "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config key {key!r}"), err


@pytest.mark.parametrize("argv, config", [
    (["classify", "-p", "0", "-a", "0.5"], None),
    (["classify", "-a", "0.5"], {"p": 0}),
    (["classify", "--coeffs", "0.5,0.2", "-a", "3", "-b", "1", "-c", "-15"], None),
    (["simulate", "-a", "3", "--length", "5"], {"coeffs": [0.5]}),
], ids=["p0-flag", "p0-config", "coeffs-and-abc-flags", "coeffs-config-and-abc-flag"])
def test_ignored_parameter_exits_2(argv, config, tmp_path, capsys):
    # no given value may be dropped: -p 0 for the inferred length, or -a/-b/-c for --coeffs
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, config, missing", [
    (["classify", "-a", "0.5", "-c", "-0.5"], None, "-b"),
    (["classify", "-b", "3"], None, "-a"),
    (["simulate", "-c", "0.5", "--length", "3"], None, "-a, -b"),
    (["classify"], {"a": 1, "c": 2}, "-b"),
    (["simulate", "-c", "2", "--length", "3"], {"b": 1}, "-a"),
], ids=["a-c-flags", "b-flag", "c-flag", "a-c-config", "b-config-c-flag"])
def test_coefficient_after_a_missing_lag_exits_2(argv, config, missing, tmp_path, capsys):
    # the given letters used to be packed together: -a 0.5 -c -0.5 classified the p = 2 point (0.5, -0.5)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {missing} missing: -a, -b and -c are the lag-1, lag-2 and lag-3")


@pytest.mark.parametrize("argv, config, message", [
    (["grid", "--a-values", "0.5", "--b-range=nan:1", "--c-range=-1:0", "--step", "0.5"], None,
     "grid range must be finite"),
    (["grid", "--a-values", "0.5", "--b-range=1", "--c-range=-1:0", "--step", "0.5"], None, "bad range"),
    (["classify", "-a", "1"], [1], "config root must be a JSON object"),
    (["classify", "-p", "3", "-a", "1"], None, "need 3 coefficients"),
    (["sweep", "--sweep", "b=0"], None, "sweep requires --fix and --sweep"),
    (["grid", "--b-range=-1:0", "--c-range=-1:0", "--step", "0.5"], None, "grid requires --a-values"),
    (["gallery", "-a", "3", "-b", "4", "-c", "-15", "--want", "0"], None, "want must be >= 1"),
    (["gallery", "-a", "3", "-b", "4", "-c", "-15", "--prefix", "0"], None, "prefix_len must be >= 1"),
    (["simulate", "-a", "3", "--length", "0"], None, "length must be >= 1"),
], ids=["grid-nan-range", "grid-one-bound", "config-root-list", "p3-one-coefficient", "sweep-no-fix",
        "grid-no-a-values", "gallery-want-0", "gallery-prefix-0", "simulate-length-0"])
def test_usage_error_exits_2(argv, config, message, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    if argv[0] != "classify":
        argv = [*argv, "--out", str(tmp_path / "out")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["sweep", "ecdf"])
def test_empty_swept_list_exits_2(command, tmp_path, capsys):
    # sweep used to write a header-only CSV and ecdf "0 curves", both exiting 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sweep": ["b", []]}))
    code, out, err = run([command, "--fix", "a=3,c=-15", "--config", str(cfg), "--out", str(tmp_path / "e0")],
                         capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: config key 'sweep' must be [name, [numbers]] with at least one number")
    assert not list(tmp_path.glob("e0*"))


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--fix", "a=3,c=-15", "--sweep", "b=0"], {"replicas": "10"}),
    (["sweep", "--fix", "a=3,c=-15", "--sweep", "b=0"], {"jobs": 1.5, "replicas": 300, "horizon": 50}),
    (["simulate", "-a", "3", "-b", "1", "-c", "-15"], {"seed": 1.5, "length": 5}),
    (["drift", "-a", "2.5", "-b", "-1", "-c", "-3"], {"radius": "20"}),
    (["drift", "-a", "2.5", "-b", "-1", "-c", "-3"], {"max_radius": True}),
    (["classify", "-a", "1", "-b", "1", "-c", "1"], {"lam": "1"}),
    (["grid", "--a-values", "0.5", "--b-range=-1:0", "--c-range=-1:0", "--step", "0.5"], {"out": 5}),
    (["grid", "--b-range=-1:0", "--c-range=-1:0", "--step", "0.5"], {"a_values": 0.5}),
    (["grid", "--a-values", "0.5", "--c-range=-1:0", "--step", "0.5"], {"b_range": "-1:0"}),
    (["grid", "--a-values", "0.5", "--c-range=-1:0", "--step", "0.5"], {"b_range": [0]}),
    (["sweep", "--sweep", "b=0", "--replicas", "10"], {"fix": "a=3,c=-15"}),
    (["sweep", "--fix", "a=3,c=-15", "--replicas", "10"], {"sweep": ["b", 0.5]}),
    (["classify"], {"coeffs": 0.5}),
])
def test_config_value_of_wrong_type_exits_2(argv, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run([*argv, "--config", str(cfg)], capsys)
    assert code == 2
    assert err.startswith("error: config key")


def test_config_int_for_float_flag_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 1}))
    code, out, _ = run(["classify", "-a", "2.5", "-b", "-1", "-c", "-3", "--config", str(cfg)], capsys)
    assert code == 0
    assert "verdict=ErgodicDiscNegative" in out


_SWEEP_INTS = ({"lam": 1, "fix": {"a": 3, "c": -15}}, ["--lam", "1", "--fix", "a=3,c=-15"],
               ["--sweep", "b=0,2", "--replicas", "300", "--seed", "5", "--jobs", "1"])
_INTEGER_CONFIGS = {
    "sweep": _SWEEP_INTS,
    "ecdf": _SWEEP_INTS,
    "grid": ({"a_values": [1], "b_range": [-1, 0], "c_range": [-1, 0], "step": 1},
             ["--a-values", "1", "--b-range=-1:0", "--c-range=-1:0", "--step", "1"], []),
}


@pytest.mark.parametrize("command", list(_INTEGER_CONFIGS))
def test_config_integers_write_what_their_flags_write(command, tmp_path, capsys):
    # a config kept the integer it gave a float key: sweep.json held "lam": 1 and the echo "step": 1
    config, flags, common = _INTEGER_CONFIGS[command]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    written = []
    for name, given in (("config", ["--config", str(cfg)]), ("flags", flags)):
        out, echo = tmp_path / name, tmp_path / f"{name}.echo.json"
        code, _, err = run([command, *given, *common, "--out", str(out), "--echo-config", str(echo)], capsys)
        assert code == 0, err
        written.append((out.with_suffix(".json").read_bytes(), echo.read_text().replace(str(out), "OUT")))
    assert written[0] == written[1]


def test_config_minus_zero_writes_what_its_flag_writes(tmp_path, capsys):
    # json reads -0 as the int 0: the config run wrote "c": 0.0 where --fix a=3,c=-0 writes -0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"lam": 1, "fix": {"a": 3, "c": -0}, "seed": -0}')
    common = ["--sweep", "b=0,2", "--replicas", "300", "--jobs", "1"]
    flags = ["--lam", "1", "--fix", "a=3,c=-0", "--seed=-0"]
    mirrors = []
    for name, given in (("config", ["--config", str(cfg)]), ("flags", flags)):
        code, _, err = run(["sweep", *given, *common, "--out", str(tmp_path / name)], capsys)
        assert code == 0, err
        mirrors.append((tmp_path / f"{name}.json").read_bytes())
    assert mirrors[0] == mirrors[1]
    spec = json.loads(mirrors[0])
    assert math.copysign(1.0, spec["fixed"]["c"]) == -1.0 and spec["master_seed"] == 0


def test_config_integer_past_float_range_reads_as_its_flag(tmp_path, capsys):
    # inf, as --lam reads the same digits; the config run used to exit on "int too large to convert to float"
    huge = "1" + "0" * 400
    cfg = tmp_path / "cfg.json"
    cfg.write_text(f'{{"lam": {huge}}}')
    abc = ["-a", "2.5", "-b", "-1", "-c", "-3"]
    from_config = run(["classify", *abc, "--config", str(cfg)], capsys)
    assert from_config == run(["classify", *abc, "--lam", huge], capsys)
    assert from_config == (2, "", "error: lam must be finite and > 0, got inf\n")
    assert run(["classify", *abc, "--config", str(cfg), "--lam", "1"], capsys)[0] == 0


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"command": "classify", "bogus": 1}))
    code, _, err = run(["classify", "--config", str(cfg), "-a", "1", "-b", "1", "-c", "1"], capsys)
    assert code == 2
    assert "unknown config keys" in err


def test_config_wrong_command_rejected(tmp_path, capsys):
    cfg = tmp_path / "other.json"
    cfg.write_text(json.dumps({"command": "sweep"}))
    code, _, err = run(["classify", "--config", str(cfg), "-a", "1", "-b", "1", "-c", "1"], capsys)
    assert code == 2


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    base_env = tmp_path / "env"
    base_flag = tmp_path / "flag"
    monkeypatch.setenv("HAWKES_SEED", "123")
    code, _, _ = run(
        ["sweep", "--fix", "a=3,c=-15", "--sweep", "b=4", "--replicas", "200",
         "--horizon", "300", "--jobs", "1", "--out", str(base_env)],
        capsys,
    )
    assert code == 0
    monkeypatch.delenv("HAWKES_SEED")
    code, _, _ = run(
        ["sweep", "--fix", "a=3,c=-15", "--sweep", "b=4", "--replicas", "200",
         "--seed", "123", "--horizon", "300", "--jobs", "1", "--out", str(base_flag)],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_env_seed_not_an_integer_exits_2(capsys, monkeypatch):
    # int()'s own message did not name the variable
    monkeypatch.setenv("HAWKES_SEED", "x")
    code, out, err = run(["sweep", "--fix", "a=3,c=-15", "--sweep", "b=4", "--replicas", "10", "--jobs", "1"], capsys)
    assert (code, out, err) == (2, "", "error: HAWKES_SEED must be an integer, got 'x'\n")


def test_unwritable_output_exits_3(tmp_path, capsys):
    code, _, err = run(
        ["simulate", "-p", "1", "-a", "0.5", "--length", "5",
         "--out", str(tmp_path / "nope" / "traj.csv")],
        capsys,
    )
    assert code == 3
    assert "i/o error" in err


def test_gallery_partial_exits_4(tmp_path, capsys):
    code, out, _ = run(
        ["gallery", "-a", "0.2", "-b", "0.2", "-c", "0.2", "--want", "1",
         "--prefix", "5", "--cap", "200", "--horizon", "100",
         "--out", str(tmp_path / "g")],
        capsys,
    )
    assert code == 4
    assert "partial" in out


def test_gallery_complete(tmp_path, capsys):
    code, out, _ = run(
        ["gallery", "-a", "3", "-b", "4", "-c", "-15", "--want", "2",
         "--prefix", "10", "--cap", "100000", "--horizon", "500", "--seed", "11",
         "--out", str(tmp_path / "g")],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "g.csv").read_text().splitlines()
    assert lines[0].startswith("replica,alternation_onset,x0")
    assert len(lines) == 3


def test_gallery_prefix_ends_at_state_past_float_range(tmp_path, capsys):
    # the replay once raised at the state where the excursion's escape was certified, and exited 2
    argv = ["gallery", "-a", "1e9", "-b=-1e300", "-c", "1e300", "--threshold", "9000000000000000000",
            "--want", "1", "--prefix", "10", "--cap", "50", "--out", str(tmp_path / "g")]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.startswith("gallery: 1/1 exploding excursions (complete")
    [entry] = json.loads((tmp_path / "g.json").read_text())["entries"]
    params = Params.p3(1e9, -1e300, 1e300)
    windows = [tuple(reversed(([0, 0] + entry["prefix"][: t + 1])[-3:])) for t in range(len(entry["prefix"]))]
    assert len(windows) < 10
    for window in windows[:-1]:
        intensity(params, window)
    with pytest.raises(OverflowError, match="past float64's range"):
        intensity(params, windows[-1])


def test_gallery_missing_coefficient_exits_2(capsys):
    code, _, err = run(["gallery", "-b", "1", "-c", "-15"], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_drift_certificate(capsys):
    code, out, _ = run(["drift", "-a", "2.5", "-b", "-1", "-c", "-3", "--radius", "50"], capsys)
    assert code == 0
    assert "small_set_verified=True" in out
    assert "shell_clean=True" in out
    assert "alpha_q=0.8126039858" in out


@pytest.mark.parametrize("abc", [("2.5", "-1", "-3"), ("3", "0.5", "-15")], ids=["b<0", "b>=0"])
def test_drift_json_reports_margins(abc, tmp_path, capsys):
    a, b, c = abc
    path = tmp_path / "d.json"
    code, out, _ = run(["drift", "-a", a, "-b", b, "-c", c, "--radius", "40", "--out", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert f"q_max_on_octant={cli._fmt(data['q_max_on_octant'])}" in out
    assert f"det_identity_residual={data['det_identity_residual']:.3e}" in out
    assert data["q_max_on_octant"] < 0.0 and abs(data["det_identity_residual"]) < 1e-8
    assert data["k_global"] == max(data["k_bound"], data["alpha"] + data["epsilon"])
    if float(b) < 0:
        assert data["small_set_verified"]
        assert data["small_set_bound"] == math.exp(-2.0) <= data["small_set_witness"]
        assert f"(witness={cli._fmt(data['small_set_witness'])}, bound={cli._fmt(data['small_set_bound'])})" in out
    else:  # the small set is not applicable: no margins to report
        assert not data["small_set_verified"]
        assert data["small_set_witness"] is None and data["small_set_bound"] is None


def test_drift_solves_the_cubic_once(monkeypatch, capsys):
    solves = []
    solve = cubic._companion_roots
    monkeypatch.setattr(cubic, "_companion_roots", lambda *args: solves.append(args) or solve(*args))
    code, _, _ = run(["drift", "-a", "2.5", "-b", "-1", "-c", "-3", "--radius", "50"], capsys)
    assert code == 0
    assert len(solves) == 1


def test_drift_exploratory_scan(capsys):
    # 0 < b <= 1: outside the proven region, exploratory output
    code, out, _ = run(["drift", "-a", "3", "-b", "0.5", "-c", "-15", "--radius", "40"], capsys)
    assert code == 0
    assert "exploratory" in out
    assert "small_set_verified=False" in out


def test_drift_on_disc_band_exits_2(capsys):
    # Disc = -6.8e-11 lies inside the Disc = 0 band: no alpha_q, no exploratory scan
    code, out, err = run(
        ["drift", "-a", "3", "-b", "0.5", "-c", "-5.020288049381336", "--radius", "10"], capsys
    )
    assert code == 2
    assert out.startswith("disc=-6.8")
    assert "Disc = 0 band" in err


def test_drift_radius_zero_exits_2(capsys):
    # doubling from radius 0 would stay at 0 forever
    code, out, err = run(["drift", "-a", "2.5", "-b", "-1", "-c", "-3", "--radius", "0"], capsys)
    assert code == 2
    assert out.startswith("disc=")
    assert err.startswith("error:")


def test_drift_no_clean_shell_exits_4(capsys):
    code, out, err = run(
        ["drift", "-a", "2.5", "-b", "-1", "-c", "-3", "--radius", "5", "--max-radius", "5"], capsys
    )
    assert code == 4
    assert out.startswith("disc=")
    assert err.splitlines() == ["no epsilon in the grid yields a clean shell up to radius 5"]


def test_drift_max_radius_below_radius_exits_2(capsys):
    # the cap would be silently ignored whenever the first shell is clean
    argv = ["drift", "-a", "2.5", "-b", "-1", "-c", "-3", "--radius", "50", "--max-radius", "10"]
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out.startswith("disc=")
    assert err.startswith("error:") and "max_radius" in err


def test_drift_inapplicable_exits_2(capsys):
    code, _, err = run(["drift", "-a", "0", "-b", "3", "-c", "0.5", "--radius", "10"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "-p", "3", "-a", "1e300", "-b", "0", "-c", "0"],
        ["drift", "-a", "1e120", "-b", "-1", "-c", "-1"],
    ],
    ids=["classify", "drift"],
)
def test_cubic_overflow_exits_2(argv, capsys):
    # Disc overflows at these coefficients: a usage error, not a traceback
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["grid", "--a-values", "0.5", "--b-range=-1:0", "--c-range=-1:0", "--step", "1e-300"],
        ["grid", "--a-values", "0.5", "--b-range=-1e308:1e308", "--c-range=-1:0", "--step", "1e-300"],
        ["sweep", "--fix", "a=3,c=-15", "--sweep", "b=0:1:1e-300"],
        ["sweep", "--fix", "a=3,c=-15", "--sweep", "b=-1e308:1e308:1e-300"],
    ],
    ids=["grid-step", "grid-overflow", "sweep-step", "sweep-overflow"],
)
def test_unbounded_range_exits_2(argv, tmp_path, capsys):
    # these ranges used to hang building their value list, or end in an OverflowError traceback
    try:
        code = main(argv + ["--out", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse rejects a bad --sweep value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "more than 10000000 points" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, equals_form",
    [
        ("classify -a 3 -b -2.2 -c -1e-3", "classify -a 3 -b -2.2 -c=-1e-3"),
        ("classify --coeffs -0.5,0.2", "classify --coeffs=-0.5,0.2"),
        (
            "grid --a-values -1,2 --b-range -3:2 --c-range=-3:2 --step 1",
            "grid --a-values=-1,2 --b-range=-3:2 --c-range=-3:2 --step 1",
        ),
    ],
    ids=["exponent", "number-list", "ranges"],
)
def test_negative_value_after_its_flag_reads_as_its_equals_form(argv, equals_form, tmp_path, capsys):
    # argparse took -1e-3, -0.5,0.2 and -3:2 for flags: "expected one argument", exit 2
    results = []
    for text in (argv, equals_form):
        extra = ["--out", str(tmp_path / "g")] if text.startswith("grid") else []
        result = run(shlex.split(text) + extra, capsys)
        results.append((result, sorted((f.name, f.read_bytes()) for f in tmp_path.iterdir())))
    assert results[0] == results[1]
    assert results[0][0][0] == 0


@pytest.mark.parametrize("command", ["sweep", "ecdf"])
@pytest.mark.parametrize("values", ["1,1", "0,-0"])
def test_sweep_repeated_value_exits_2(command, values, tmp_path, capsys):
    # ecdf used to run both points and write one curve for them
    code, out, err = run(
        [command, "--fix", "a=3,c=-15", "--sweep", f"b={values}", "--replicas", "10", "--jobs", "1",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: swept value -?[01]\.0 given twice\n", err)
    assert not list(tmp_path.iterdir())


def test_sweep_mean_past_float_range_exits_0(capsys):
    # the Poisson mean a * x overflowed to inf and aborted the sweep with exit 2
    code, out, err = run(
        ["sweep", "--fix", "a=1e10,c=-1e9", "--sweep", "b=-1e9", "--replicas", "20", "--jobs", "1"], capsys
    )
    assert (code, err) == (0, "")
    assert re.fullmatch(r"b=-1000000000 exploded=\d+/20 ci=\[.*\]\n", out)
    assert int(out.split("exploded=")[1].split("/")[0]) > 0


def test_simulate_mean_past_float_range_exits_2(capsys):
    # a trajectory has no escape to certify: a state past float64's range is a usage error, not a traceback
    code, out, err = run(
        ["simulate", "--coeffs", "1e9,-1e300,1e300", "--threshold", "9000000000000000000", "--length", "10"], capsys
    )
    assert (code, out, err) == (2, "", "error: intensity sum inf is past float64's range\n")


def test_classify_overflowing_sum_warns_nothing(capsys):
    # the sums of the coefficients overflow to inf; numpy printed two RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["classify", "--coeffs", "1e308,1e308"], capsys)
    assert (code, err) == (0, "")
    assert out == "verdict=TransientLinear\nrule=transient: all coefficients >= 0 and sum inf > 1\n"


@pytest.mark.parametrize("lam", ["-1", "0", "nan"])
def test_grid_bad_lam_exits_2(lam, tmp_path, capsys):
    code, out, err = run(
        ["grid", "--a-values", "0.5", "--b-range=-1:0", "--c-range=-1:0", "--step", "0.5", "--lam", lam,
         "--out", str(tmp_path / "g")],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == f"error: lam must be finite and > 0, got {float(lam)}\n"
    assert not list(tmp_path.iterdir())


def test_grid_nonfinite_coefficient_names_it(tmp_path, capsys):
    code, out, err = run(
        ["grid", "--a-values", "1,nan", "--b-range=-1:0", "--c-range=-1:0", "--step", "0.5",
         "--out", str(tmp_path / "g")],
        capsys,
    )
    assert (code, out, err) == (2, "", "error: a must be finite, got nan\n")
    assert not list(tmp_path.iterdir())


def test_fix_repeated_name_exits_2(capsys):
    # the last value used to win: this ran at a = 3 and dropped a = 1
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--fix", "a=1,a=3,c=-15", "--sweep", "b=0", "--replicas", "10", "--jobs", "1"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (["grid", "--a-values=", "--b-range=-1:0", "--c-range=-1:0", "--step", "0.5"], None),
    (["grid", "--b-range=-1:0", "--c-range=-1:0", "--step", "0.5"], {"a_values": []}),
    (["classify", "--coeffs=", "-a", "0.5"], None),
    (["classify", "-a", "0.5"], {"coeffs": []}),
    (["grid", "--a-values", "0.5,,1,", "--b-range=-1:0", "--c-range=-1:0", "--step", "0.5"], None),
    (["classify", "--coeffs", "0.5,,0.2"], None),
], ids=["grid-flag", "grid-config", "classify-flag", "classify-config", "grid-empty-item",
        "classify-empty-item"])
def test_empty_number_list_exits_2(argv, config, tmp_path, capsys):
    # grid used to write 0 cells and exit 0, and classify took an empty --coeffs for an absent one
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    if argv[0] == "grid":
        argv = [*argv, "--out", str(tmp_path / "g")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "error:" in captured.err
    assert not list(tmp_path.glob("g.*"))


@pytest.mark.parametrize("config", [
    '{"fix": {"a": 3, "c": -15}, "replicas": 10, "replicas": 20}',
    '{"fix": {"a": 1, "a": 3, "c": -15}, "replicas": 10}',
], ids=["top-level", "fix"])
def test_config_repeated_key_exits_2(config, tmp_path, capsys):
    # json.load used to keep the last value: the fix case ran at a = 3 and exited 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    code = main(["sweep", "--sweep", "b=0", "--jobs", "1", "--config", str(cfg),
                 "--out", str(tmp_path / "s"), "--echo-config", str(tmp_path / "s.echo.json")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "twice" in captured.err
    assert not list(tmp_path.glob("s*"))


def test_grid_command(tmp_path, capsys):
    code, out, _ = run(
        ["grid", "--a-values", "0.5", "--b-range=-1:0", "--c-range=-1:0",
         "--step", "0.5", "--out", str(tmp_path / "grid")],
        capsys,
    )
    assert code == 0
    lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[0] == "a,b,c,disc,disc_sign,linear_stable,verdict,rule"
    assert len(lines) == 10  # header + 3*3 cells
    data = json.loads((tmp_path / "grid.json").read_text())
    assert len(data["cells"]) == 9


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Quick start \(CLI\)\n\n```\n(.*?)```", readme, re.S)
    assert block, "README has no Quick start (CLI) block"
    lines = [ln for ln in block.group(1).splitlines() if ln.startswith("dhawkes ")]
    commands = {shlex.split(ln)[1] for ln in lines}
    assert commands == {"classify", "simulate", "sweep", "ecdf", "gallery", "drift", "grid"}
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def _rows(table):
    """json.dumps' default: a Table is the list of its rows' objects."""
    if not isinstance(table, Table):
        raise TypeError(f"Object of type {type(table).__name__} is not JSON serializable")
    return [row._asdict() for row in table]


def _oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, default=_rows) + "\n"


class _Str(str):
    pass


_TABLE = [{"a": 0.5, "b": "x", "c": None, "d": True}, {"d": False, "c": 1, "b": "y", "a": -2.9}]
_WRITER_CASES = {
    "empty-dict": {},
    "empty-list": [],
    "zero-row-table": {"rows": []},
    "one-row-table": {"rows": _TABLE[:1]},
    "table": {"rows": _TABLE},
    "ragged-table": [*_TABLE, {"a": 1}, {"a": 2, "b": 3, "c": 4, "d": 5, "e": 6}, {}, {"a": [1, {"b": ()}]}],
    "table-with-nested-value": [{"a": 1, "b": [2, 3]}, {"a": 4, "b": {"c": (5,)}}],
    "table-of-non-str-keys": [{1: "a", 2.5: "b"}, {1: "c", 2.5: "d"}],
    "long-table": [{"x": i / 7, "n": i, "s": f"r{i}"} for i in range(2500)] + [{"x": math.nan, "n": 0, "s": ""}],
    "nested": [[1, [2, (3, (4,))], ()], ({"q": (1.0, [])},), {"a": {"b": {"c": []}}}],
    "non-finite": [math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, {"k": [{"v": math.inf}, {"v": -0.0}]}],
    "big-ints": [2**63, 2**64 + 1, -(2**70), int(1e300), {"peak": int(1e300)}, [{"peak": 2**63}]],
    "bool-int-none": [True, 1, False, 0, None, 1.0, {"t": True, "o": 1, "n": None}, [{"t": True}, {"t": 1}]],
    "strings": ["é ü 😀", 'q"uo\\te', "\x00\x01\n\t\x7f\u2028", "%s %d %%", {"%s": "%s", "ké\n": 1},
                [{"%s": "%", "%%": "é"}, {"%s": _Str("s"), "%%": "\\"}]],
    "number-keys": {1: "int", 2.5: "float", -3: "neg", math.inf: "inf"},
    "bool-keys": {True: 1, False: 0},
    "none-key": {None: [None]},
    "non-str-keys-over-containers": {2.5: [1, {"b": 2}], -1: {"c": []}, math.inf: [()]},
    "table-of-awkward-strings": [{"s": "a\nb", "t": 1}, {"s": "%s", "t": 2}, {"s": "%", "t": 3}, {"s": "\n%\n", "t": 4}],
    "flat-dicts-lists-and-scalars": [{"a": 1, "b": "x"}, [1, "y", None], 2.5, "z", {"c": math.nan}, [], {}, None],
}


@pytest.mark.parametrize("obj", list(_WRITER_CASES.values()), ids=list(_WRITER_CASES))
def test_write_json_matches_json_dumps(obj, tmp_path):
    path = tmp_path / "o.json"
    write_json(obj, str(path))
    assert path.read_text(encoding="utf-8") == _oracle(obj)


@pytest.mark.parametrize("obj", [{"a": object()}, {(1,): 2}, {1: 1, "a": 2}, [{1, 2}]])
def test_write_json_rejects_what_json_rejects(obj, tmp_path):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        write_json(obj, str(tmp_path / "o.json"))
    assert str(got.value) == str(expected.value)


# Values of one generated column, drawn with repeats so that equal values share tokens.
_POOLS = {
    "zeros": [0.0, -0.0, 0.5, -0.5],
    "non-finite": [math.nan, math.inf, -math.inf, 1e300, 5e-324],
    "floats": [0.1, 1 / 3, -2.5, 2.0**60],
    "none": [None, 0.25],
    "bool": [True, False],
    "int": [0, -1, 7, 2**63, -(2**70)],
    "float64": [np.float64(0.1), np.float64(-0.0), np.float64(0.0), np.float64(math.nan), np.float64(1e-300)],
    "mixed": [1, 1.0, True, None, "1", np.float64(1.0), 2**53 + 1, float(2**53 + 1), 0, 0.0, -0.0, False],
    "strings": [",", '"', "\n", "%", "", "a,b", 'q"uo"te', "%s %d", "line\nbreak", "plain"],
}


def _table(names, n):
    rng = random.Random(n)
    return [[rng.choice(_POOLS[name]) for name in names] for _ in range(n)]


_ORACLE_TABLES = {
    **{f"rows{n}": (list(_POOLS), _table(_POOLS, n)) for n in (255, 256, 257, 600)},
    **{f"one-column-{name}": ([name], _table([name], 300)) for name in _POOLS},
    "ragged": (["a", "b", "c"], [[1, 2.5, "x"], [3], [""], [], [None], [True, -0.0], [4, 0.0, "y"]] * 40),
}


@pytest.mark.parametrize("header, rows", list(_ORACLE_TABLES.values()), ids=list(_ORACLE_TABLES))
def test_writers_match_csv_writer_and_json_dumps(header, rows, tmp_path):
    expected = io.StringIO()
    w = csv.writer(expected, lineterminator="\n")
    w.writerow(header)
    w.writerows([_rule(v) for v in row] for row in rows)
    write_csv(str(tmp_path / "t.csv"), header, rows)
    # compared line by line: a long text's diff would take minutes to report
    lines = (tmp_path / "t.csv").read_bytes().decode("utf-8").splitlines(True)
    assert lines == expected.getvalue().splitlines(True)
    obj = {
        "dicts": [dict(zip(header, row)) for row in rows],
        "lists": rows,
        "tuples": [tuple(row) for row in rows],
        "empty": [[] for _ in rows],
    }
    write_json(obj, str(tmp_path / "t.json"))
    lines = (tmp_path / "t.json").read_bytes().decode("utf-8").splitlines(True)
    assert lines == _oracle(obj).splitlines(True)


def _grid_rows(a_values, lo, hi, step):
    """The grid's cells as a list of GridCell rows, one per cell, from one classify_p3 call over the whole grid."""
    a, b, c = (np.array(v) for v in zip(*itertools.product(a_values, grid_values(lo, hi, step), grid_values(lo, hi, step))))
    labels = classify_p3(a, b, c, 1.0)
    disc = labels.reports.disc.tolist()
    return list(map(GridCell, a.tolist(), b.tolist(), c.tolist(), disc, [(d > 0) - (d < 0) for d in disc],
                    (labels.reports.spectral_radius < 1.0).tolist(), [v.value for v in labels.verdicts], labels.rules))


@pytest.mark.parametrize("a_values, lo, hi, step", [
    ((0.5, 1.0, 2.0, 3.0), -3.0, 2.0, 0.1),  # the analytics grid of the benchmark
    ((0.5, 1.0, 3.0), -1.0, 0.5, 0.5),
    ((0.5,), -1.0, -1.0, 0.5),  # one cell
], ids=["analytics", "small", "one-cell"])
def test_grid_files_match_csv_writer_and_json_dumps_of_grid_cells(a_values, lo, hi, step, tmp_path, capsys):
    code, _, err = run(["grid", "--a-values", ",".join(map(str, a_values)), f"--b-range={lo}:{hi}",
                        f"--c-range={lo}:{hi}", "--step", str(step), "--out", str(tmp_path / "g")], capsys)
    assert code == 0, err
    rows = _grid_rows(a_values, lo, hi, step)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(GridCell._fields)
    writer.writerows([_rule(v) for v in row] for row in rows)
    _same_text((tmp_path / "g.csv").read_bytes().decode("utf-8"), expected.getvalue())
    want = json.dumps({"cells": [cell._asdict() for cell in rows]}, indent=2, sort_keys=True) + "\n"
    _same_text((tmp_path / "g.json").read_bytes().decode("utf-8"), want)


def _same_text(got: str, want: str) -> None:
    """Fail at the first line where got and want differ: pytest's diff of a long text takes minutes."""
    if got != want:
        pairs = enumerate(itertools.zip_longest(got.splitlines(True), want.splitlines(True)), start=1)
        line, (g, w) = next((n, pair) for n, pair in pairs if pair[0] != pair[1])
        pytest.fail(f"line {line}: got {g!r}, want {w!r}")


class _Pair(NamedTuple):
    key: str
    value: object


@pytest.mark.parametrize("n", [0, 1, 256, 257, 600])
def test_writers_lay_out_a_table_as_its_rows(n, tmp_path):
    # a Table writes its rows' bytes: CSV as the rows themselves, JSON as their _asdict() objects
    rows = [SweepRow(0.5, 1, 2, 0.5, 0.01, 0.99, None, 0), SweepRow(-0.0, 0, 2, 0.0, 0.0, 0.9, 1.5, 2),
            SweepRow(math.inf, 2**70, 2, math.nan, 0.0, 1.0, 2.5, 0)] * 200
    rows = rows[:n]
    table = Table(SweepRow, list(zip(*rows)) or [()] * len(SweepRow._fields))
    write_csv(str(tmp_path / "t.csv"), SweepRow._fields, table)
    write_csv(str(tmp_path / "r.csv"), SweepRow._fields, rows)
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()
    as_dicts = [row._asdict() for row in rows]
    write_json({"rows": table, "nested": [table, {"t": table}]}, str(tmp_path / "t.json"))
    want = json.dumps({"rows": as_dicts, "nested": [as_dicts, {"t": as_dicts}]}, indent=2, sort_keys=True) + "\n"
    _same_text((tmp_path / "t.json").read_text(encoding="utf-8"), want)


def test_write_json_table_of_containers_and_rejected_values(tmp_path):
    # a column json's C encoder cannot take whole goes item by item, each row as its _asdict()
    table = Table(_Pair, [["x", "y", "z"], [[1, (2,)], {"k": []}, None]])
    write_json({"t": table}, str(tmp_path / "t.json"))
    want = json.dumps({"t": [row._asdict() for row in table]}, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "t.json").read_text(encoding="utf-8") == want
    bad = Table(_Pair, [["x", "y"], [1, object()]])
    with pytest.raises(TypeError) as expected:
        json.dumps([row._asdict() for row in bad], indent=2, sort_keys=True)
    with pytest.raises(TypeError) as got:
        write_json([bad], str(tmp_path / "bad.json"))
    assert str(got.value) == str(expected.value)


def test_every_command_mirror_matches_json_dumps(tmp_path, capsys, monkeypatch):
    written = []
    real = cli.write_json
    monkeypatch.setattr(cli, "write_json", lambda obj, path: written.append((obj, path)) or real(obj, path))
    sim = ["--replicas", "300", "--seed", "3", "--horizon", "500", "--jobs", "1"]
    commands = [
        ["sweep", "--fix", "a=3,c=-15", "--sweep", "b=0,1.1,4", *sim],
        ["ecdf", "--fix", "a=3,c=-15", "--sweep", "b=0.9,4", *sim],
        ["gallery", "-a", "3", "-b", "4", "-c", "-15", "--want", "2", "--prefix", "10",
         "--horizon", "500", "--seed", "11"],
        ["drift", "-a", "2.5", "-b", "-1", "-c", "-3", "--radius", "40"],
        ["drift", "-a", "3", "-b", "0.5", "-c", "-15", "--radius", "40"],
        ["grid", "--a-values", "0.5,1,3", "--b-range=-1.5:3", "--c-range=-1:0.5", "--step", "0.5"],
    ]
    # every command writes its mirror (drift: the report) and echoes its configuration
    commands = [
        [*argv, "--out", str(tmp_path / f"{n}.json"), "--echo-config", str(tmp_path / f"{n}.echo.json")]
        for n, argv in enumerate(commands)
    ]
    commands.append(["classify", "-a", "2.5", "-b", "-1", "-c", "-3", "--echo-config", str(tmp_path / "c.json")])
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)
    assert len(written) == 13
    for obj, path in written:
        assert Path(path).read_text(encoding="utf-8") == _oracle(obj), path
