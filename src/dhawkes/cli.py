"""Command-line front door: classify, simulate, drift-check and experiments.

Configuration precedence: explicit flags > HAWKES_SEED environment
variable (seed only) > --config file > built-in defaults.  Every command
can echo its fully resolved configuration to a JSON file; re-ingesting
that file reproduces the identical run.

Exit codes: 0 success, 2 usage or parse error, 3 output I/O error,
4 flagged numerical anomaly (no clean boundary shell up to --max-radius,
a failed premise of a b < 0 drift certificate, partial gallery).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .classify import classify, grid_values
from .cubic import discriminant
from .drift import DriftCertificate, certify_drift
from .experiments import (
    GridCell,
    SweepRow,
    SweepSpec,
    disc_grid,
    exploding_gallery,
    sweep_explosion,
    tau_cdf_experiment,
)
from .model import Params
from .simulate import SimConfig, run_trajectory

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ANOMALY = 4

_SIM_DEFAULTS = {"horizon": 10_000, "threshold": 10**9, "seed": 0}
_SWEEP_DEFAULTS = {
    "fix": None, "sweep": None, "replicas": 100_000, "alpha": 0.01, "lam": 1.0,
    "jobs": None, "out": None, **_SIM_DEFAULTS,
}

DEFAULTS: dict[str, dict] = {
    "classify": {"p": None, "a": None, "b": None, "c": None, "coeffs": None, "lam": 1.0},
    "simulate": {
        "p": None, "a": None, "b": None, "c": None, "coeffs": None, "lam": 1.0,
        "length": 100, "replica": 0, "out": None, **_SIM_DEFAULTS,
    },
    "sweep": _SWEEP_DEFAULTS,
    "ecdf": _SWEEP_DEFAULTS,
    "gallery": {
        "a": None, "b": None, "c": None, "lam": 1.0, "want": 5, "prefix": 30,
        "cap": 10_000_000, "out": None, **_SIM_DEFAULTS,
    },
    "drift": {
        "a": None, "b": None, "c": None, "lam": 1.0, "radius": 200,
        "max_radius": 1600, "out": None,
    },
    "grid": {
        "a_values": None, "b_range": None, "c_range": None, "step": None,
        "lam": 1.0, "out": None,
    },
}


# The JSON shape of a non-null config value, by key.  JSON loads a bool as
# bool, which is never taken for a number.
def _is_number(v: object) -> bool:
    return type(v) in (int, float)


def _is_numbers(v: object) -> bool:
    return type(v) is list and all(map(_is_number, v))


_CONFIG_SHAPES: dict[str, tuple[Callable[[object], bool], str]] = {
    **dict.fromkeys(
        "p horizon threshold seed length replica replicas jobs want prefix cap radius max_radius".split(),
        (lambda v: type(v) is int, "an integer"),
    ),
    **dict.fromkeys("a b c lam alpha step".split(), (_is_number, "a number")),
    "out": (lambda v: type(v) is str, "a string"),
    "fix": (lambda v: type(v) is dict and all(map(_is_number, v.values())), "an object of numbers"),
    "sweep": (lambda v: type(v) is list and len(v) == 2 and type(v[0]) is str and _is_numbers(v[1]),
              "[name, [numbers]]"),
    "a_values": (_is_numbers, "an array of numbers"),
    "coeffs": (_is_numbers, "an array of numbers"),
    **dict.fromkeys(("b_range", "c_range"), (lambda v: _is_numbers(v) and len(v) == 2, "[number, number]")),
}


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {e}") from None


def _parse_fix(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    try:
        for part in text.split(","):
            name, val = part.split("=")
            out[name.strip()] = float(val)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad fix argument {text!r}: {e}") from None
    return out


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    try:
        name, rhs = text.split("=")
        name = name.strip()
        if ":" in rhs:
            start, stop, step = (float(v) for v in rhs.split(":"))
            return name, grid_values(start, stop, step)
        return name, [float(v) for v in rhs.split(",")]
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(f"bad sweep argument {text!r}: {e}") from None


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
        return lo, hi
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {e}") from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dhawkes", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--echo-config", help="write the resolved configuration to this path")

    def add_abc(p: argparse.ArgumentParser) -> None:
        p.add_argument("-a", type=float, help="lag-1 coefficient")
        p.add_argument("-b", type=float, help="lag-2 coefficient")
        p.add_argument("-c", type=float, help="lag-3 coefficient")
        p.add_argument("--lam", type=float, help="baseline intensity (default 1)")

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("-p", type=int, dest="p", help="memory length")
        p.add_argument("--coeffs", type=_parse_floats, help="comma-separated a_1..a_p")
        add_abc(p)

    def add_sim(p: argparse.ArgumentParser) -> None:
        p.add_argument("--horizon", type=int, help="censoring horizon (default 10000)")
        p.add_argument(
            "--threshold", type=int, help="level above which escape is checked (default 1e9)"
        )
        p.add_argument("--seed", type=int, help="master seed")

    p = sub.add_parser("classify", help="stability verdict for a parameter point")
    add_params(p)
    add_common(p)

    p = sub.add_parser("simulate", help="write one trajectory as CSV")
    add_params(p)
    add_sim(p)
    p.add_argument("--length", type=int, help="number of steps (default 100)")
    p.add_argument("--replica", type=int, help="replica index (default 0)")
    p.add_argument("--out", help="output CSV path (default stdout)")
    add_common(p)

    for name, help_text in (
        ("sweep", "explosion-proportion sweep with exact intervals"),
        ("ecdf", "empirical CDFs of the truncated return time"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--fix", type=_parse_fix, help="fixed coordinates, e.g. a=3,c=-15")
        p.add_argument(
            "--sweep", type=_parse_sweep, dest="sweep",
            help="swept coordinate, e.g. b=0:4:0.5 or b=0.9,1,4",
        )
        p.add_argument("--replicas", type=int, help="excursions per point")
        p.add_argument("--alpha", type=float, help="interval significance (default 0.01)")
        p.add_argument("--lam", type=float)
        p.add_argument("--jobs", type=int, help="worker processes (default: all cores)")
        p.add_argument("--out", help="output basename (.csv/.json emitted)")
        add_sim(p)
        add_common(p)

    p = sub.add_parser("gallery", help="collect exploding excursion prefixes")
    add_abc(p)
    p.add_argument("--want", type=int, help="number of exploding excursions (default 5)")
    p.add_argument("--prefix", type=int, help="prefix length to record (default 30)")
    p.add_argument("--cap", type=int, help="replica cap (default 1e7)")
    p.add_argument("--out", help="output basename")
    add_sim(p)
    add_common(p)

    p = sub.add_parser("drift", help="verify the drift construction numerically")
    add_abc(p)
    p.add_argument("--radius", type=int, help="scan box radius, >= 1 (default 200)")
    p.add_argument("--max-radius", type=int, dest="max_radius", help="doubling cap (default 1600)")
    p.add_argument("--out", help="write the report as JSON")
    add_common(p)

    p = sub.add_parser("grid", help="discriminant-sign / classification grid data")
    p.add_argument("--a-values", type=_parse_floats, dest="a_values", help="e.g. 0.5,1,2,3")
    p.add_argument("--b-range", type=_parse_range, dest="b_range", help="e.g. -3:2")
    p.add_argument("--c-range", type=_parse_range, dest="c_range", help="e.g. -3:2")
    p.add_argument("--step", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--out", help="output basename")
    add_common(p)

    return top


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, HAWKES_SEED and explicit flags."""
    command = args.command
    merged = dict(DEFAULTS[command])
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ValueError("config root must be a JSON object")
        cfg_cmd = loaded.pop("command", command)
        if cfg_cmd != command:
            raise ValueError(f"config is for command {cfg_cmd!r}, not {command!r}")
        unknown = set(loaded) - set(merged)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in loaded.items():
            if val is None and merged[key] is not None:
                raise ValueError(f"config key {key!r} must not be null")
            shape, noun = _CONFIG_SHAPES[key]
            if val is not None and not shape(val):
                raise ValueError(f"config key {key!r} must be {noun}, got {val!r}")
            if key == "sweep" and val is not None:
                val = (val[0], [float(v) for v in val[1]])
            merged[key] = val
    if "seed" in merged and os.environ.get("HAWKES_SEED"):
        merged["seed"] = int(os.environ["HAWKES_SEED"])
    for key in merged:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    return merged


def _params_from(merged: dict) -> Params:
    lam = merged["lam"]
    if merged.get("coeffs"):
        coeffs = [float(v) for v in merged["coeffs"]]
        p = merged.get("p") or len(coeffs)
        return Params(p=p, coeffs=tuple(coeffs), lam=lam)
    letters = [merged.get("a"), merged.get("b"), merged.get("c")]
    provided = [v for v in letters if v is not None]
    p = merged.get("p") or len(provided)
    if len(provided) != p or p == 0:
        raise ValueError(f"need {p or 'some'} coefficients; got {provided}")
    return Params(p=p, coeffs=tuple(provided), lam=lam)


def _params3_from(merged: dict) -> Params:
    """Params of a command that needs the p = 3 model: -a, -b and -c all given."""
    if None in (merged["a"], merged["b"], merged["c"]):
        raise ValueError("-a, -b and -c are all required")
    return _params_from(merged)


def _sim_config(merged: dict) -> SimConfig:
    return SimConfig(
        horizon_n=merged["horizon"],
        explosion_threshold_m=merged["threshold"],
        master_seed=merged["seed"],
    )


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------------
# Output files: CSV tables and their JSON mirrors
# ---------------------------------------------------------------------------


def _csv_field(v: object) -> object:
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, bool):
        return int(v)
    return "" if v is None else v


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows: floats to 17 significant digits, bools as 0/1, None empty."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows([_csv_field(v) for v in row] for row in rows)


def write_json(obj: object, path: str) -> None:
    """Write the bytes of json.dumps(obj, indent=2, sort_keys=True) and a newline, streamed.

    json.dump runs its pure-Python encoder whenever it indents.  Here json's
    C encoder writes the tokens and this writer lays them out.  A table's
    rows (flat dicts with the same string keys) are encoded a column at a
    time, _JSON_BLOCK rows at a time, and each row is written through one
    %-template as it is formatted.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_json_chunks(obj, "\n"))
        f.write("\n")


_JSON_BLOCK = 256  # table rows encoded per batch
_NON_FINITE = frozenset(("nan", "inf", "-inf"))  # float.__repr__ of the values JSON spells otherwise
_CONTAINERS = (dict, list, tuple)
# Tokens of a column whose values are all of one of these exact types, faster than the encoder.
_JSON_TOKENS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


@functools.cache
def _json_encoder(sep: str) -> Callable[[object], str]:
    """json's C encoder, keys sorted, with item separator sep."""
    return json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode


def _json_column(values: list) -> list[str] | None:
    """The tokens of one table column; None if a value is a container."""
    kinds = set(map(type, values))
    encode = _JSON_TOKENS.get(next(iter(kinds))) if len(kinds) == 1 else None
    if encode is not None:
        tokens = list(map(encode, values))
        if encode is not float.__repr__ or _NON_FINITE.isdisjoint(tokens):
            return tokens
    if any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return None
    return _json_encoder("\n")(values)[1:-1].split("\n")


def _json_rows(block: Sequence, inner: str) -> Iterator[str] | None:
    """Each item's text where block is a table: dicts with one set of string keys and scalar values.

    None for any other block.  inner starts the items' lines.
    """
    first = block[0]
    if set(map(type, block)) != {dict} or set(map(len, block)) != {len(first)} or not first:
        return None
    if not all(type(k) is str for k in first):
        return None
    keys = sorted(first)
    try:
        columns = [_json_column(list(map(itemgetter(k), block))) for k in keys]
    except (KeyError, TypeError):  # a row with other keys; a value json rejects, left to
        return None  # the item-by-item path, which raises json's error in json's order
    if None in columns:
        return None
    pairs = ",".join(f"{inner}  {encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys)
    row = inner + "{" + pairs + inner + "}"
    return map(row.__mod__, zip(*columns))


def _json_chunks(o: object, nl: str) -> Iterator[str]:
    """The text of o as json.dumps(o, indent=2, sort_keys=True) lays it out; nl starts o's lines.

    A container that holds no container is one encoder call whose item
    separator starts each line (json escapes every newline in a string).
    """
    items = o.values() if isinstance(o, dict) else o if isinstance(o, (list, tuple)) else ()
    inner = nl + "  "
    if not items:  # a scalar, {} or []; json's TypeError for anything else
        yield _json_encoder(",")(o)
    elif not any(isinstance(v, _CONTAINERS) for v in items):
        text = _json_encoder("," + inner)(o)
        yield text[0] + inner + text[1:-1] + nl + text[-1]
    elif isinstance(o, dict):
        sep = "{" + inner
        for k, v in sorted(o.items()):
            yield sep + _json_encoder(",")({k: 0})[1:-4] + ": "  # json spells the key
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield nl + "}"
    else:
        sep = "["
        for start in range(0, len(o), _JSON_BLOCK):
            block = o[start:start + _JSON_BLOCK]
            rows = _json_rows(block, inner) or (inner + "".join(_json_chunks(item, inner)) for item in block)
            for text in rows:
                yield sep + text
                sep = ","
        yield nl + "]"


_SWEEP_COLUMNS = (
    "swept_value", "exploded", "N", "proportion", "ci_lower", "ci_upper", "mean_tau_returned",
    "censored",
)
_GRID_COLUMNS = GridCell._fields


def _sweep_record(r: SweepRow) -> tuple:
    return (
        r.value, r.exploded, r.replicas, r.proportion,
        r.interval.lower, r.interval.upper, r.mean_tau_returned, r.censored,
    )


def _mirror(columns: tuple[str, ...], records: Sequence[tuple]) -> list[dict]:
    """JSON rows of a CSV table: one object per record, keyed by column."""
    return [dict(zip(columns, rec)) for rec in records]


def _sweep_json(spec: SweepSpec, records: list[tuple]) -> dict:
    return {
        "fixed": spec.fixed,
        "sweep": spec.sweep_name,
        "lam": spec.lam,
        "replicas": spec.replicas,
        "alpha": spec.alpha,
        "horizon": spec.sim.horizon_n,
        "explosion_threshold": spec.sim.explosion_threshold_m,
        "master_seed": spec.sim.master_seed,
        "rows": _mirror(_SWEEP_COLUMNS, records),
    }


def _drift_json(cert: DriftCertificate) -> dict:
    report, small = cert.report, cert.small_set
    return {
        "alpha": cert.cubic.alpha_q,
        "epsilon": report.epsilon,
        "epsilon_margin": cert.epsilon_margin,
        "box_radius": report.box_radius,
        "violations_total": report.violations_total,
        "violations": report.violation_set[:1000],
        "k_bound": report.k_bound,
        "shell_clean": report.shell_clean,
        "small_set_verified": small is not None and small.verified,
        "small_set_witness": None if small is None else small.witness_probability,
        "small_set_bound": None if small is None else small.bound,
        "q_max_on_octant": cert.q_max_on_octant,
        "det_identity_residual": cert.det_identity_residual,
    }


# ---------------------------------------------------------------------------
# Commands: each takes the resolved configuration
# ---------------------------------------------------------------------------


def cmd_classify(merged: dict) -> int:
    params = _params_from(merged)
    label = classify(params)
    print(f"verdict={label.verdict.value}")
    print(f"rule={label.rule}")
    w = label.witness
    if w is not None:
        print(f"disc={_fmt(w.disc)}")
        print(f"real_roots={[float(_fmt(r)) for r in w.real_roots]}")
        print(f"spectral_radius={_fmt(w.spectral_radius)}")
        if w.alpha_q is not None:
            print(f"alpha_q={_fmt(w.alpha_q)}")
            print(f"r_at_alpha_q={_fmt(w.r_at_alpha_q)}")
            print(f"k_at_alpha_q={_fmt(w.k_at_alpha_q)}")
    return EXIT_OK


def cmd_simulate(merged: dict) -> int:
    params = _params_from(merged)
    cfg = _sim_config(merged)
    traj = run_trajectory(params, cfg, merged["length"], merged["replica"])
    if merged["out"]:
        steps = enumerate((s[0] for s in traj.states), start=1)
        write_csv(merged["out"], ("step", "count"), steps)
        dest = merged["out"]
    else:
        for n, s in enumerate(traj.states, start=1):
            print(f"{n},{s[0]}")
        dest = "stdout"
    note = " (explosion threshold crossed)" if traj.crossed else ""
    print(f"simulate: {len(traj.states)} steps -> {dest}{note}", file=sys.stderr)
    return EXIT_OK


def _sweep_spec(merged: dict) -> SweepSpec:
    if not merged.get("fix") or not merged.get("sweep"):
        raise ValueError("sweep requires --fix and --sweep")
    name, values = merged["sweep"]
    return SweepSpec(
        fixed={k: float(v) for k, v in merged["fix"].items()},
        sweep_name=name,
        values=tuple(values),
        lam=merged["lam"],
        replicas=merged["replicas"],
        sim=_sim_config(merged),
        alpha=merged["alpha"],
        jobs=merged.get("jobs"),
    )


def cmd_sweep(merged: dict) -> int:
    spec = _sweep_spec(merged)
    rows = sweep_explosion(spec)
    if merged["out"]:
        base = merged["out"].removesuffix(".csv")
        records = [_sweep_record(r) for r in rows]
        write_csv(base + ".csv", _SWEEP_COLUMNS, records)
        write_json(_sweep_json(spec, records), base + ".json")
        print(f"sweep: {len(rows)} points x {spec.replicas} replicas -> {base}.csv")
    else:
        for r in rows:
            print(
                f"{spec.sweep_name}={_fmt(r.value)} exploded={r.exploded}/{r.replicas} "
                f"ci=[{_fmt(r.interval.lower)},{_fmt(r.interval.upper)}]"
            )
    return EXIT_OK


def cmd_ecdf(merged: dict) -> int:
    spec = _sweep_spec(merged)
    curves = tau_cdf_experiment(spec)
    base = (merged["out"] or "ecdf").removesuffix(".csv")
    keyed = {f"{v:.17g}": points for v, points in curves.items()}  # file name = mirror key
    for key, points in keyed.items():
        write_csv(f"{base}_{spec.sweep_name}{key}.csv", ("tau", "cumulative_fraction"), points)
    write_json({"spec": _sweep_json(spec, []), "curves": keyed}, base + ".json")
    print(f"ecdf: {len(curves)} curves -> {base}_*.csv")
    return EXIT_OK


def cmd_gallery(merged: dict) -> int:
    params = _params3_from(merged)
    cfg = _sim_config(merged)
    result = exploding_gallery(
        params, cfg, want=merged["want"], prefix_len=merged["prefix"], replica_cap=merged["cap"]
    )
    base = (merged["out"] or "gallery").removesuffix(".csv")
    width = max((len(e.prefix) for e in result.entries), default=0)
    write_csv(
        base + ".csv",
        ["replica", "alternation_onset"] + [f"x{t}" for t in range(width)],
        ([e.replica, e.alternation_onset, *e.prefix] for e in result.entries),
    )
    write_json(asdict(result), base + ".json")
    status = "partial" if result.partial else "complete"
    print(
        f"gallery: {len(result.entries)}/{merged['want']} exploding excursions "
        f"({status}, {result.replicas_scanned} replicas scanned) -> {base}.csv"
    )
    return EXIT_ANOMALY if result.partial else EXIT_OK


def cmd_drift(merged: dict) -> int:
    params = _params3_from(merged)
    print(f"disc={_fmt(discriminant(*params.abc))}")
    try:
        cert = certify_drift(params, box_radius=merged["radius"], max_radius=merged["max_radius"])
    except RuntimeError as e:  # no clean shell up to the doubling cap
        print(e, file=sys.stderr)
        return EXIT_ANOMALY
    small = cert.small_set
    print(f"alpha_q={_fmt(cert.cubic.alpha_q)}")
    print(f"r_at_alpha_q={_fmt(cert.cubic.r_at_alpha_q)}")
    print(f"k_at_alpha_q={_fmt(cert.cubic.k_at_alpha_q)}")
    print(f"epsilon={_fmt(cert.report.epsilon)}")
    print(f"epsilon_margin={_fmt(cert.epsilon_margin)}")
    print(f"violations={cert.report.violations_total} (radius {cert.report.box_radius})")
    print(f"shell_clean={cert.report.shell_clean}")
    print(f"k_bound={_fmt(cert.report.k_bound)}")
    print(f"q_max_on_octant={_fmt(cert.q_max_on_octant)}")
    print(f"det_identity_residual={cert.det_identity_residual:.3e}")
    if small is None:
        print("small_set_verified=False (not applicable: b >= 0)")
        print("exploratory: b >= 0 is outside the theorem's hypothesis b < 0; "
              "the lines above are evidence, not a certificate")
    else:
        print(
            f"small_set_verified={small.verified} "
            f"(witness={_fmt(small.witness_probability)}, bound={_fmt(small.bound)})"
        )
    if merged["out"]:
        write_json(_drift_json(cert), merged["out"])
    return EXIT_OK if cert.complete or small is None else EXIT_ANOMALY


def cmd_grid(merged: dict) -> int:
    for key in ("a_values", "b_range", "c_range", "step"):
        if merged.get(key) is None:
            raise ValueError(f"grid requires --{key.replace('_', '-')}")
    cells = disc_grid(
        [float(v) for v in merged["a_values"]],
        tuple(merged["b_range"]),
        tuple(merged["c_range"]),
        merged["step"],
        merged["lam"],
    )
    base = (merged["out"] or "grid").removesuffix(".csv")
    write_csv(base + ".csv", _GRID_COLUMNS, cells)
    write_json({"cells": _mirror(_GRID_COLUMNS, cells)}, base + ".json")
    print(f"grid: {len(cells)} cells -> {base}.csv")
    return EXIT_OK


_HANDLERS = {
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "ecdf": cmd_ecdf,
    "gallery": cmd_gallery,
    "drift": cmd_drift,
    "grid": cmd_grid,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _resolve(args)
        if args.echo_config:
            write_json({"command": args.command, **merged}, args.echo_config)
        return _HANDLERS[args.command](merged)
    except (ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
