"""Command-line front door: classify, simulate, drift-check and experiments.

Configuration precedence: explicit flags > HAWKES_SEED environment
variable (seed only) > --config file > built-in defaults.  A config value
is read as its flag reads the same number, so a config file and the equal
flags write the same files and the same echo.  Every command can echo its
fully resolved configuration to a JSON file; re-ingesting that file
reproduces the identical run.  A grid's cells and a sweep's JSON rows
reach the writers as a Table, whose columns the writers encode directly.

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
import re
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import asdict
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .classify import classify, grid_values
from .cubic import discriminant
from .drift import DriftCertificate, certify_drift
from .experiments import (
    GridCell,
    SweepRow,
    SweepSpec,
    Table,
    disc_grid,
    exploding_gallery,
    sweep_explosion,
    tau_cdf_experiment,
)
from .model import Params, intensity
from .simulate import SimConfig, run_trajectory

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_ANOMALY = 4


def _parse_floats(text: str) -> list[float]:
    try:
        if "" in text.split(","):
            raise ValueError("empty item")
        return [float(v) for v in text.split(",")]
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {e}") from None


def _parse_fix(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    try:
        for part in text.split(","):
            name, val = part.split("=")
            name = name.strip()
            if name in out:
                raise ValueError(f"{name!r} given twice")
            out[name] = float(val)
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


# Every config key: its flag's parse type, its default and its help text.
# The flag of a one-letter key k is -k; of any other, --key with "_" as "-".
_OPTIONS: dict[str, tuple[Callable[[str], object], object, str]] = {
    "p": (int, None, "memory length"),
    "coeffs": (_parse_floats, None, "comma-separated a_1..a_p"),
    "a": (float, None, "lag-1 coefficient"),
    "b": (float, None, "lag-2 coefficient"),
    "c": (float, None, "lag-3 coefficient"),
    "lam": (float, 1.0, "baseline intensity (default 1)"),
    "horizon": (int, 10_000, "censoring horizon (default 10000)"),
    "threshold": (int, 10**9, "level above which escape is checked (default 1e9)"),
    "seed": (int, 0, "master seed"),
    "length": (int, 100, "number of steps (default 100)"),
    "replica": (int, 0, "replica index (default 0)"),
    "out": (str, None, "output: simulate's CSV (default stdout), drift's JSON, else a basename"),
    "fix": (_parse_fix, None, "fixed coordinates, e.g. a=3,c=-15"),
    "sweep": (_parse_sweep, None, "swept coordinate, e.g. b=0:4:0.5 or b=0.9,1,4"),
    "replicas": (int, 100_000, "excursions per point"),
    "alpha": (float, 0.01, "interval significance (default 0.01)"),
    "jobs": (int, None, "worker processes, at most one per core (default: all cores)"),
    "want": (int, 5, "number of exploding excursions (default 5)"),
    "prefix": (int, 30, "prefix length to record (default 30)"),
    "cap": (int, 10_000_000, "replica cap (default 1e7)"),
    "radius": (int, 200, "scan box radius, >= 1 (default 200)"),
    "max_radius": (int, 1600, "doubling cap (default 1600)"),
    "a_values": (_parse_floats, None, "e.g. 0.5,1,2,3"),
    "b_range": (_parse_range, None, "e.g. -3:2"),
    "c_range": (_parse_range, None, "e.g. -3:2"),
    "step": (float, None, "grid spacing of b and c"),
}


class _JsonInt(int):
    """A config file's integer with its text, which json's int loses for -0."""

    def __new__(cls, text: str) -> "_JsonInt":
        self = super().__new__(cls, text)
        self.text = text
        return self


# Readers of a non-null config value: each returns what its flag gives for
# the same numbers, or raises ValueError for any other JSON shape.  JSON
# loads a bool as bool, which is never taken for a number.  An integer is
# read from its text, as a flag reads it: past float's range it is inf, and
# -0 is -0.0 where a float is asked for.
def _read(v: object, kind: type) -> object:
    if type(v) is _JsonInt and kind in (int, float):
        return kind(v.text)
    if type(v) is not kind:
        raise ValueError
    return v


def _read_floats(v: object, size: int = 0) -> list[float]:
    if type(v) is not list or not v or len(v) != (size or len(v)):
        raise ValueError
    return [_read(x, float) for x in v]


def _read_sweep(v: object) -> tuple[str, list[float]]:
    if type(v) is not list or len(v) != 2:
        raise ValueError
    return _read(v[0], str), _read_floats(v[1])


# Each flag parse type's config reader and the JSON shape it takes.
_FROM_CONFIG: dict[Callable[[str], object], tuple[Callable[[object], object], str]] = {
    int: (lambda v: _read(v, int), "an integer"),
    float: (lambda v: _read(v, float), "a number"),
    str: (lambda v: _read(v, str), "a string"),
    _parse_floats: (_read_floats, "a non-empty array of numbers"),
    _parse_fix: (lambda v: {k: _read(x, float) for k, x in _read(v, dict).items()}, "an object of numbers"),
    _parse_sweep: (_read_sweep, "[name, [numbers]] with at least one number"),
    _parse_range: (lambda v: tuple(_read_floats(v, 2)), "[number, number]"),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dhawkes", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for command, (summary, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        # argparse takes only -5 and -.5 forms for negative numbers and reads
        # -1e-3, -1,2 or -3:2 as a flag.  No flag here has a digit or "." after
        # its dash, so any such token is a value.
        p._negative_number_matcher = re.compile(r"-[\d.]")
        for key in DEFAULTS[command]:
            parse, _, help_text = _OPTIONS[key]
            flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
            p.add_argument(flag, type=parse, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--echo-config", help="write the resolved configuration to this path")
    return top


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the config file as a dict; ValueError when it gives a key twice."""
    for i, (key, _) in enumerate(pairs):
        if any(key == k for k, _ in pairs[:i]):
            raise ValueError(f"config has key {key!r} twice")
    return dict(pairs)


def _resolve(args: argparse.Namespace) -> dict:
    """Merge defaults, config file, HAWKES_SEED and explicit flags."""
    command = args.command
    merged = dict(DEFAULTS[command])
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            loaded = json.load(f, object_pairs_hook=_unique_keys, parse_int=_JsonInt)
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
            read, noun = _FROM_CONFIG[_OPTIONS[key][0]]
            try:
                merged[key] = val if val is None else read(val)
            except ValueError:
                raise ValueError(f"config key {key!r} must be {noun}, got {val!r}") from None
    seed = os.environ.get("HAWKES_SEED")
    if "seed" in merged and seed:
        try:
            merged["seed"] = int(seed)
        except ValueError:
            raise ValueError(f"HAWKES_SEED must be an integer, got {seed!r}") from None
    for key in merged:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    return merged


def _params_from(merged: dict) -> Params:
    lam, p = merged["lam"], merged.get("p")
    provided = [merged.get(k) for k in "abc"]
    while provided and provided[-1] is None:
        provided.pop()
    if p is not None and p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if merged.get("coeffs"):
        if provided:
            raise ValueError("give --coeffs or -a/-b/-c, not both")
        return Params(p=p or len(merged["coeffs"]), coeffs=tuple(merged["coeffs"]), lam=lam)
    missing = [f"-{k}" for k, v in zip("abc", provided) if v is None]
    if missing:
        raise ValueError(
            f"{', '.join(missing)} missing: -a, -b and -c are the lag-1, lag-2 and lag-3 coefficients"
        )
    p = p or len(provided)
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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows: floats to 17 significant digits, bools as 0/1, None empty.

    The bytes are csv.writer's (lineterminator "\\n").  Rows are turned into
    text _TABLE_BLOCK at a time, a column at a time: each run of rows of
    one length, or a Table's slice, is a table whose columns _tokens encodes.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerow(header)
        for n, columns in _column_runs(rows):
            other = functools.partial(_csv_token, lone=len(columns) == 1)
            tokens = [_tokens(col, _CSV_TOKENS, other) for col in columns]
            f.write("\n".join(map(",".join, zip(*tokens)) if columns else [""] * n) + "\n")


def _column_runs(rows: Iterable[Sequence]) -> Iterator[tuple[int, Sequence[Sequence]]]:
    """Each run of at most _TABLE_BLOCK rows of one length, as (row count, columns)."""
    if isinstance(rows, Table):
        for start in range(0, len(rows), _TABLE_BLOCK):
            yield min(_TABLE_BLOCK, len(rows) - start), rows[start:start + _TABLE_BLOCK].columns
        return
    rows = iter(rows)
    while block := list(islice(rows, _TABLE_BLOCK)):
        for _, run in groupby(block, len):
            run = list(run)
            yield len(run), list(zip(*run))


_TABLE_BLOCK = 256  # table rows turned into text per batch, in both writers
# Types whose equal values have one token each, zeros of a float aside (0.0 == -0.0).
_SHARED = frozenset((float, int, bool, str, type(None)))
_CSV_TOKENS = {float: "{:.17g}".format, int: int.__repr__, bool: {True: "1", False: "0"}.__getitem__}
# write_csv's dialect, whose writerow returns what its file's write returns: here the line itself.
_CSV_LINE = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow


def _csv_token(v: object, lone: bool = False) -> str:
    """csv.writer's text for field v under write_csv's rule; lone: v is its row's only field.

    csv.writer quotes a row whose one field is empty, and no other empty field.
    """
    if isinstance(v, float):  # also a float subclass, such as numpy's float64
        v = _CSV_TOKENS[float](v)
    elif isinstance(v, bool):
        v = int(v)
    return _CSV_LINE((v,))[:-1] if lone else _CSV_LINE((v, None))[:-2]


def _tokens(values: Sequence, exact: dict[type, Callable[[object], str]],
            other: Callable[[object], str] | None) -> list[str] | None:
    """The token of each value of one table column, with one encoder call per distinct value.

    The encoder is exact[T] where every value has the one type T, else
    other; None where that is None too.  Values share a token only where
    they have one type in _SHARED; a float column holding a zero encodes
    its zeros one by one, since 0.0 and -0.0 are one key.
    """
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    encode = exact.get(kind, other)
    if encode is None:
        return None
    distinct = set(values) if kind in _SHARED else values
    if len(distinct) == len(values):
        return list(map(encode, values))
    table = dict(zip(distinct, map(encode, distinct)))
    if kind is float and 0.0 in table:
        return [table[v] if v else encode(v) for v in values]
    return list(map(table.__getitem__, values))


def write_json(obj: object, path: str) -> None:
    """Write the bytes of json.dumps(obj, indent=2, sort_keys=True) and a newline, streamed.

    json.dump runs its pure-Python encoder whenever it indents.  Here json's
    C encoder writes the tokens and this writer lays them out.  A table's
    rows (a Table's rows, laid out as their `_asdict()`, or flat lists and
    tuples of one length) are encoded a column at a time, _TABLE_BLOCK rows
    at a time, each by one %-template; any other list goes item by item.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_json_chunks(obj, "\n"))
        f.write("\n")


_NON_FINITE = frozenset(("nan", "inf", "-inf"))  # float.__repr__ of the values JSON spells otherwise
_CONTAINERS = (dict, list, tuple, Table)
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


def _json_column(values: Sequence) -> list[str] | None:
    """The tokens of one table column; None if a value is a container."""
    tokens = _tokens(values, _JSON_TOKENS, None)
    if tokens is not None and (type(values[0]) is not float or _NON_FINITE.isdisjoint(tokens)):
        return tokens
    if any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values))):
        return None
    return _json_encoder("\n")(values)[1:-1].split("\n")


def _json_rows(block: Sequence, inner: str) -> Iterator[str] | None:
    """Each item's text where block is a table, None for any other block; inner starts the items' lines.

    A table's items are a Table's rows, or lists and tuples of one
    length, and hold no container.
    """
    if isinstance(block, Table):
        columns = dict(zip(block.row._fields, block.columns))
    elif set(map(type, block)) <= {list, tuple} and set(map(len, block)) == {len(block[0])} and block[0]:
        columns = dict(enumerate(zip(*block)))
    else:
        return None
    keys = sorted(columns)
    brackets = "{}" if type(keys[0]) is str else "[]"
    labels = [encode_basestring_ascii(k).replace("%", "%%") + ": " if brackets == "{}" else "" for k in keys]
    try:
        tokens = [_json_column(columns[k]) for k in keys]
    except TypeError:  # a value json rejects, left to the item-by-item
        return None  # path, which raises json's error in json's order
    if None in tokens:
        return None
    row = inner + brackets[0] + ",".join(f"{inner}  {label}%s" for label in labels) + inner + brackets[1]
    return map(row.__mod__, zip(*tokens))


def _json_chunks(o: object, nl: str) -> Iterator[str]:
    """The text of o as json.dumps(o, indent=2, sort_keys=True) lays it out; nl starts o's lines.

    A container that holds no container is one encoder call whose item
    separator starts each line (json escapes every newline in a string).
    """
    items = o.values() if isinstance(o, dict) else o if isinstance(o, _CONTAINERS) else ()
    inner = nl + "  "
    if not items:  # a scalar, {}, [] or an empty Table; json's TypeError for anything else
        yield "[]" if isinstance(o, Table) else _json_encoder(",")(o)
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
        for start in range(0, len(o), _TABLE_BLOCK):
            block = o[start:start + _TABLE_BLOCK]
            items = map(o.row._asdict, block) if isinstance(o, Table) else block
            rows = _json_rows(block, inner) or (inner + "".join(_json_chunks(item, inner)) for item in items)
            yield sep + ",".join(rows)
            sep = ","
        yield nl + "]"


def _sweep_json(spec: SweepSpec, rows: list[SweepRow]) -> dict:
    return {
        "fixed": spec.fixed,
        "sweep": spec.sweep_name,
        "lam": spec.lam,
        "replicas": spec.replicas,
        "alpha": spec.alpha,
        "horizon": spec.sim.horizon_n,
        "explosion_threshold": spec.sim.explosion_threshold_m,
        "master_seed": spec.sim.master_seed,
        "rows": Table(SweepRow, list(zip(*rows)) or [()] * len(SweepRow._fields)),
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
        "k_global": cert.k_global,
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
    if traj.overflowed:  # a trajectory certifies no escape: its last state is a usage error
        intensity(params, traj.states[-1])  # raises the OverflowError that names the sum
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
    return SweepSpec(
        merged["fix"],
        *merged["sweep"],
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
        write_csv(base + ".csv", SweepRow._fields, rows)
        write_json(_sweep_json(spec, rows), base + ".json")
        print(f"sweep: {len(rows)} points x {spec.replicas} replicas -> {base}.csv")
    else:
        for r in rows:
            print(
                f"{spec.sweep_name}={_fmt(r.swept_value)} exploded={r.exploded}/{r.N} "
                f"ci=[{_fmt(r.ci_lower)},{_fmt(r.ci_upper)}]"
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
    cells = disc_grid(merged["a_values"], merged["b_range"], merged["c_range"], merged["step"], merged["lam"])
    base = (merged["out"] or "grid").removesuffix(".csv")
    write_csv(base + ".csv", GridCell._fields, cells)
    write_json({"cells": cells}, base + ".json")
    print(f"grid: {len(cells)} cells -> {base}.csv")
    return EXIT_OK


_SIM = "horizon threshold seed"
_SWEEP = f"fix sweep replicas alpha lam jobs out {_SIM}"
# Each command's help line, its config keys and its handler, in --help order.
_COMMANDS: dict[str, tuple[str, str, Callable[[dict], int]]] = {
    "classify": ("stability verdict for a parameter point", "p coeffs a b c lam", cmd_classify),
    "simulate": ("write one trajectory as CSV", f"p coeffs a b c lam {_SIM} length replica out", cmd_simulate),
    "sweep": ("explosion-proportion sweep with exact intervals", _SWEEP, cmd_sweep),
    "ecdf": ("empirical CDFs of the truncated return time", _SWEEP, cmd_ecdf),
    "gallery": ("collect exploding excursion prefixes", f"a b c lam want prefix cap out {_SIM}", cmd_gallery),
    "drift": ("verify the drift construction numerically", "a b c lam radius max_radius out", cmd_drift),
    "grid": ("discriminant-sign / classification grid data", "a_values b_range c_range step lam out", cmd_grid),
}

DEFAULTS: dict[str, dict] = {
    command: {key: _OPTIONS[key][1] for key in keys.split()} for command, (_, keys, _) in _COMMANDS.items()
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        merged = _resolve(args)
        if args.echo_config:
            write_json({"command": args.command, **merged}, args.echo_config)
        return _COMMANDS[args.command][2](merged)
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
