"""Workloads of the dhawkes benchmark: the operations of one repetition and
the checks on their outputs.

An operation is one CLI command (``dhawkes.cli.main``) or one public API
call.  It fails when it raises, exits non-zero (a drift exit 4 counts) or
its output check finds a problem.  The Monte Carlo checks hold for any
layout of the random streams, so they never compare seeded numbers with
stored digests.  The analytics workload draws no random numbers, so its
checks compare exact values recorded from the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import dhawkes
import dhawkes.cli


class CheckFailed(Exception):
    """An operation exited non-zero or its output failed a check."""


Op = tuple[str, Callable[[], None]]


@dataclass(frozen=True)
class Workload:
    name: str
    # ops(size, seeds, out, jobs) -> operations of one repetition
    ops: Callable[[dict, list[int], str, int], list[Op]]
    n_seeds: int
    sizes: dict[str, dict]


def run_cli(argv: list[str]) -> None:
    """Run ``dhawkes.cli.main`` in-process with its output captured; raise on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dhawkes.cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    if code != 0:
        raise CheckFailed(f"dhawkes {argv[0]} exited {code}: {err.getvalue().strip()}")


def _raise_if(problems: list[str]) -> None:
    if problems:
        raise CheckFailed("; ".join(problems))


def _load(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Monte Carlo checks: statistical facts of the model, not seeded digests
# ---------------------------------------------------------------------------


def check_sweep(rows: list[dict], values: list[float], replicas: int) -> list[str]:
    """Explosions only above b = 1, proportions nondecreasing up to CI overlap."""
    problems = []
    got = [r["swept_value"] for r in rows]
    if got != values:
        problems.append(f"swept values {got}, expected {values}")
    for r in rows:
        b, exploded, n = r["swept_value"], r["exploded"], r["N"]
        if n != replicas or not 0 <= exploded <= n:
            problems.append(f"b={b:g}: {exploded} exploded of N={n}, expected N={replicas}")
            continue
        if r["proportion"] != exploded / n:
            problems.append(f"b={b:g}: proportion {r['proportion']} != {exploded}/{n}")
        if not r["ci_lower"] <= r["proportion"] <= r["ci_upper"]:
            problems.append(f"b={b:g}: interval does not contain the proportion")
        if b <= 1.0 and exploded:
            problems.append(f"b={b:g}: {exploded} explosions where the chain cannot explode")
        if b >= 2.0 and not exploded:
            problems.append(f"b={b:g}: no explosions in the transient region")
    for prev, cur in zip(rows, rows[1:]):
        if cur["ci_upper"] < prev["ci_lower"]:
            problems.append(
                f"proportion falls from b={prev['swept_value']:g} to b={cur['swept_value']:g} "
                "beyond interval overlap"
            )
    return problems


def check_ecdf(
    curves: dict[str, list[list[float]]],
    values: list[float],
    replicas: int,
    horizon: int,
    sweep_rows: list[dict] | None,
) -> list[str]:
    """Each curve is a CDF of N atoms; its atom at horizon+1 is the exploded share.

    The share must be 0 for b <= 1 and, where the sweep ran the same
    parameters on its own seed, agree with the sweep within 5 standard
    errors of the difference.
    """
    problems = []
    by_value = {float(k): v for k, v in curves.items()}
    if sorted(by_value) != sorted(values):
        return [f"curves for {sorted(by_value)}, expected {sorted(values)}"]
    swept = {r["swept_value"]: r["exploded"] / r["N"] for r in sweep_rows or []}
    for b, points in sorted(by_value.items()):
        taus = [t for t, _ in points]
        fracs = [f for _, f in points]
        if taus != sorted(set(taus)) or fracs != sorted(fracs) or fracs[-1] != 1.0:
            problems.append(f"b={b:g}: not a CDF")
            continue
        counts = [round(f * replicas) for f in fracs]
        if any(abs(c / replicas - f) > 1e-9 for c, f in zip(counts, fracs)):
            problems.append(f"b={b:g}: jumps are not multiples of 1/{replicas}")
        if taus[0] < 1 or taus[-1] > horizon + 1:
            problems.append(f"b={b:g}: support [{taus[0]}, {taus[-1]}] outside [1, {horizon + 1}]")
        below = fracs[-2] if len(fracs) > 1 else 0.0
        share = 1.0 - below if taus[-1] == horizon + 1 else 0.0
        if b <= 1.0 and share:
            problems.append(f"b={b:g}: exploded share {share} where the chain cannot explode")
        if b in swept:
            p = swept[b]
            pooled = (p + share) / 2.0
            se = math.sqrt(max(pooled * (1.0 - pooled), 1.0 / replicas) * 2.0 / replicas)
            if abs(share - p) > 5.0 * se:
                problems.append(f"b={b:g}: exploded share {share} disagrees with the sweep's {p}")
    return problems


def check_gallery(result: dict, want: int, prefix: int) -> list[str]:
    """Complete gallery; every prefix full length and alternating within it."""
    problems = []
    entries = result["entries"]
    if result["partial"] or len(entries) != want:
        problems.append(f"gallery has {len(entries)}/{want} entries, partial={result['partial']}")
    replicas = [e["replica"] for e in entries]
    if replicas != sorted(set(replicas)) or (replicas and replicas[-1] >= result["replicas_scanned"]):
        problems.append(f"gallery replicas {replicas} not distinct, ordered and scanned")
    for e in entries:
        onset = e["alternation_onset"]
        if len(e["prefix"]) != prefix:
            problems.append(f"replica {e['replica']}: prefix length {len(e['prefix'])} != {prefix}")
        if onset is None or not 0 <= onset <= prefix:
            problems.append(f"replica {e['replica']}: alternation onset {onset} not within the prefix")
    return problems


def check_outcomes(outcomes, n: int, horizon: int) -> list[str]:
    """Outcome counts of an ergodic chain: they sum to n, none exploded, steps match each kind."""
    kinds = Counter(o.kind.value for o in outcomes)
    problems = []
    if len(outcomes) != n or sum(kinds.values()) != n:
        problems.append(f"{len(outcomes)} outcomes {dict(kinds)} for {n} replicas")
    if kinds["exploded"]:
        problems.append(f"{kinds['exploded']} explosions in an ergodic chain")
    expected = {"returned": range(1, horizon + 1), "censored": (horizon,), "exploded": (horizon + 1,)}
    for o in outcomes:
        if o.steps not in expected[o.kind.value] or o.peak < 0:
            problems.append(f"{o.kind.value} outcome with steps={o.steps} peak={o.peak}")
            break
    return problems


# ---------------------------------------------------------------------------
# Analytics checks: exact values
# ---------------------------------------------------------------------------

# (a, b, c) -> (epsilon, box radius, violations_total) of the certificate.
DRIFT_EXPECTED = {
    (2.5, -1.0, -3.0): (0.125, 200, 277),
    (4.19, -2.66, -5.0): (0.015625, 200, 3840),
    (3.78, -2.88, -1.91): (0.015625, 200, 9227),
    (1.9, -4.61, -9.49): (0.5, 200, 49),
    (1.87, -0.14, -7.99): (0.25, 200, 47),
}

# A grid cell's rule text with its numbers replaced by '#', so that cells
# decided by the same rule share one key.
_RULES = {
    "boundary": "Disc within the zero-surface band; discriminant-based rules withheld",
    "conjectured": "conjectured ergodic: b <= #, c < # and Disc < #",
    "conjectured_b1": "conjectured ergodic: b <= #, c < # and Disc < # (boundary_b=#)",
    "disc_negative": "ergodic: b < #, c < # and Disc < #",
    "positive_parts": "ergodic: sum of positive parts # < #",
    "p2_below": "memory-# reduction (c = #): b < b*(a)",
    "linear": "transient: all coefficients >= # and sum # > #",
    "oscillating": "transient: b > # and ab + c < # (period-# growth)",
    "p2_above": "memory-# reduction (c = #): b > b*(a)",
    "none": "no rule applies",
}


def rule_key(rule: str) -> str:
    return re.sub(r"\d+(\.\d+)?", "#", rule)


def _by_rule(counts: dict[tuple[str, str], int]) -> dict[tuple[str, str], int]:
    return {(verdict, _RULES[rule]): n for (verdict, rule), n in counts.items()}


# grid step -> (cell counts by (verdict, rule), discriminant sign counts)
GRID_EXPECTED = {
    0.1: (
        _by_rule({
            ("Boundary", "boundary"): 1, ("ConjecturedErgodic", "conjectured"): 510,
            ("ConjecturedErgodic", "conjectured_b1"): 48, ("ErgodicDiscNegative", "disc_negative"): 2272,
            ("ErgodicGeneralP", "positive_parts"): 1215, ("ErgodicP2Region", "p2_below"): 58,
            ("TransientLinear", "linear"): 1742, ("TransientOscillating", "oscillating"): 390,
            ("TransientP2Region", "p2_above"): 31, ("Unknown", "none"): 4137,
        }),
        {-1: 8204, 0: 8, 1: 2192},
    ),
    0.5: (
        _by_rule({
            ("ConjecturedErgodic", "conjectured"): 6, ("ConjecturedErgodic", "conjectured_b1"): 5,
            ("ErgodicDiscNegative", "disc_negative"): 24, ("ErgodicGeneralP", "positive_parts"): 49,
            ("ErgodicP2Region", "p2_below"): 2, ("TransientLinear", "linear"): 47,
            ("TransientOscillating", "oscillating"): 9, ("TransientP2Region", "p2_above"): 4,
            ("Unknown", "none"): 96,
        }),
        {-1: 176, 0: 4, 1: 62},
    ),
}


def check_drift(report: dict, abc: tuple[float, float, float]) -> list[str]:
    """Certificate fields equal the recorded exact values; shell clean, small set verified."""
    eps, radius, violations = DRIFT_EXPECTED[abc]
    got = (report["epsilon"], report["box_radius"], report["violations_total"])
    problems = []
    if got != (eps, radius, violations):
        problems.append(f"drift {abc}: (epsilon, radius, violations) {got}, expected {(eps, radius, violations)}")
    if not (report["shell_clean"] and report["small_set_verified"]):
        problems.append(f"drift {abc}: certificate incomplete")
    return problems


def check_grid(cells: list[dict], step: float, n_a: int) -> list[str]:
    """Cell count, counts by (verdict, rule) and discriminant-sign counts equal the recorded values."""
    by_rule, signs = GRID_EXPECTED[step]
    n_side = round(5.0 / step) + 1
    problems = []
    if len(cells) != n_a * n_side * n_side:
        problems.append(f"grid has {len(cells)} cells, expected {n_a * n_side * n_side}")
    got_by_rule = dict(Counter((c["verdict"], rule_key(c["rule"])) for c in cells))
    got_signs = dict(Counter(c["disc_sign"] for c in cells))
    if got_by_rule != by_rule:
        problems.append(f"grid counts by (verdict, rule) {got_by_rule}, expected {by_rule}")
    if got_signs != signs:
        problems.append(f"grid disc-sign counts {got_signs}, expected {signs}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

HORIZON = 10_000  # the CLI's default censoring horizon
SWEEP_B = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]
PROBE_B = 2.0  # the sweep point whose pool speed-up the traced run probes
ECDF_B = [0.9, 4.0]


def _mc_sweep_ops(size: dict, seeds: list[int], out: str, jobs: int) -> list[Op]:
    n = size["replicas"]
    ctx: dict = {}  # the sweep's rows, for the ECDF check
    common = ["--replicas", str(n), "--jobs", str(jobs)]

    def sweep() -> None:
        base = os.path.join(out, "sweep")
        run_cli(["sweep", "--fix", "a=3,c=-15", "--sweep", "b=" + ",".join(f"{b:g}" for b in SWEEP_B),
                 "--seed", str(seeds[0]), "--out", base, *common])
        ctx["sweep_rows"] = _load(base + ".json")["rows"]
        _raise_if(check_sweep(ctx["sweep_rows"], SWEEP_B, n))

    def ecdf() -> None:
        base = os.path.join(out, "tau")
        run_cli(["ecdf", "--fix", "a=3,c=-15", "--sweep", "b=" + ",".join(f"{b:g}" for b in ECDF_B),
                 "--seed", str(seeds[1]), "--out", base, *common])
        curves = _load(base + ".json")["curves"]
        _raise_if(check_ecdf(curves, ECDF_B, n, HORIZON, ctx.get("sweep_rows")))

    def gallery() -> None:
        base = os.path.join(out, "gallery")
        run_cli(["gallery", "-a", "3", "-b", "1.1", "-c", "-15", "--want", str(size["want"]),
                 "--prefix", str(size["prefix"]), "--seed", str(seeds[2]), "--out", base])
        _raise_if(check_gallery(_load(base + ".json"), size["want"], size["prefix"]))

    return [("sweep", sweep), ("ecdf", ecdf), ("gallery", gallery)]


P5_COEFFS = (0.3, 0.2, 0.2, 0.2, 0.09)
# Started at the stationary mean lam / (1 - sum(P5_COEFFS)) = 100, every
# excursion runs to the horizon, so the steps per repetition are fixed and
# the time measures per-step cost rather than how many excursions ran long.
P5_START = (100,) * 5


def _mc_tail_ops(size: dict, seeds: list[int], out: str, jobs: int) -> list[Op]:
    def sweep() -> None:
        base = os.path.join(out, "sweep_tail")
        n = size["replicas"]
        run_cli(["sweep", "--fix", "a=3,c=-15", "--sweep", "b=1", "--replicas", str(n),
                 "--jobs", "1", "--seed", str(seeds[0]), "--out", base])
        _raise_if(check_sweep(_load(base + ".json")["rows"], [1.0], n))

    def generic_p() -> None:
        n = size["p5_replicas"]
        params = dhawkes.Params(p=5, coeffs=P5_COEFFS, lam=1.0)
        cfg = dhawkes.SimConfig(horizon_n=HORIZON, master_seed=seeds[1], initial_state=P5_START)
        outcomes = dhawkes.run_excursions(params, cfg, n, jobs=1)
        # The positive parts sum to 0.99 < 1, so the chain is ergodic.
        _raise_if(check_outcomes(outcomes, n, HORIZON))

    return [("sweep", sweep), ("run_excursions_p5", generic_p)]


def _analytics_ops(size: dict, seeds: list[int], out: str, jobs: int) -> list[Op]:
    ops: list[Op] = []
    for idx, abc in enumerate(size["drift_points"]):
        def drift(abc=abc, path=os.path.join(out, f"drift{idx}.json")) -> None:
            a, b, c = (f"{v:g}" for v in abc)
            run_cli(["drift", "-a", a, "-b", b, "-c", c, "--radius", "200", "--out", path])
            _raise_if(check_drift(_load(path), abc))

        ops.append((f"drift{idx}", drift))

    def grid() -> None:
        base = os.path.join(out, "grid")
        a_values = size["a_values"]
        run_cli(["grid", "--a-values", ",".join(f"{a:g}" for a in a_values), "--b-range=-3:2",
                 "--c-range=-3:2", "--step", f"{size['step']:g}", "--out", base])
        _raise_if(check_grid(_load(base + ".json")["cells"], size["step"], len(a_values)))

    ops.append(("grid", grid))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_sweep",
            _mc_sweep_ops,
            n_seeds=3,
            sizes={
                "full": {"replicas": 10_000, "want": 5, "prefix": 30},
                "tiny": {"replicas": 2_000, "want": 2, "prefix": 30},
            },
        ),
        Workload(
            "mc_tail",
            _mc_tail_ops,
            n_seeds=2,
            sizes={
                "full": {"replicas": 10_000, "p5_replicas": 100},
                "tiny": {"replicas": 2_000, "p5_replicas": 8},
            },
        ),
        Workload(
            "analytics",
            _analytics_ops,
            n_seeds=0,
            sizes={
                "full": {"drift_points": list(DRIFT_EXPECTED), "a_values": [0.5, 1.0, 2.0, 3.0], "step": 0.1},
                "tiny": {"drift_points": [(1.9, -4.61, -9.49)], "a_values": [0.5, 3.0], "step": 0.5},
            },
        ),
    )
}
