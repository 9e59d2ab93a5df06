"""Command-line front end.

Every subcommand is deterministic given its flags: fixed seeds drive all
sampling, and output files are byte stable.  ``--threads`` is accepted and
ignored; every command runs single-threaded.  Exit status is 0 on success,
1 on domain errors (out-of-class channel, infeasible system), 2 on usage
or parse problems, including non-finite numbers in a channel, system or
region file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .capacity import capacity_degraded_z, capacity_semidet_hi, hi_regime_falsify
from .channel import classify, load_channel
from .errors import CifcError, ParseError, ShapeMismatch, UsageError
from .inner import AUX_LABELS, SamplerConfig, inner_region
from .outer import SearchConfig, outer_region_estimate
from .pmf import _number
from .polytope import (
    LinearSystem,
    polygon_extract,
    project_to_plane,
    region_contains,
    region_from_dict,
    region_to_dict,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cifc-udc",
        description="Rate regions for the cognitive interference channel "
        "with a cooperating destination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, positionals, **options):
        """Declare a subcommand from ``options = {dest: (type, default)}``.

        Each option is the flag ``--<dest with - for _>`` and the config
        key ``dest``; ``klass`` is the required ``--class``, a choice among
        the names its type lists.  ``_resolve`` reads the mapping back.
        """
        p = sub.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        for dest, (kind, _) in options.items():
            if dest == "klass":
                p.add_argument("--class", dest=dest, required=True, choices=kind)
                continue
            how = {"action": "store_true"} if kind is bool else {"type": kind}
            p.add_argument(f"--{dest.replace('_', '-')}", dest=dest,
                           default=None, **how)
        p.add_argument("--config", default=None)
        p.set_defaults(options=options)

    search = {"samples": (int, 0), "seed": (int, 0)}
    output = {"threads": (int, 1), "out": (str, None)}
    cards = {f"card_{name}": (int, 2) for name in AUX_LABELS}

    command("classify", "print structural channel flags", ["channel"],
            hi_check=(bool, False), card_v12=(int, 0), **search)
    command("inner", "achievable-rate region estimate", ["channel"],
            **cards, **search, **output)
    command("outer", "converse-bound region estimate", ["channel"],
            card_v12=(int, 0), fan=(int, 64), **search, **output)
    command("capacity", "capacity region for a solvable class", ["channel"],
            klass=(("degraded-z", "semidet-hi"), None), card_v12=(int, 0),
            **search, **output)
    command("compare", "mutual containment of two regions",
            ["region_a", "region_b"], tol=(float, 1e-9))
    command("fm", "project a linear system onto two variables", ["system"],
            keep=(str, None), out=(str, None))
    return parser


def _read_config(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args) -> dict:
    """Flag value if given, else config value, else hard default."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(args.options)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for name, (kind, default) in args.options.items():
        given = getattr(args, name)
        if given is not None:
            resolved[name] = given
        elif name in config:
            raw = config[name]
            if kind is bool:
                if raw.lower() not in ("true", "false", "0", "1"):
                    raise ParseError(f"config {name}: not a boolean: {raw!r}")
                resolved[name] = raw.lower() in ("true", "1")
            else:
                try:
                    resolved[name] = kind(raw)
                except ValueError as exc:
                    raise ParseError(f"config {name}: {exc}") from exc
        else:
            resolved[name] = default
    return resolved


def _config(kind, **fields):
    """``kind(**fields)``; a value the config rejects is a usage error."""
    try:
        return kind(**fields)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_channel_file(path: str):
    with open(path, encoding="utf-8") as handle:
        return load_channel(handle.read())


def _load_json_file(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            return json.loads(handle.read())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from exc


def _load_region_file(path: str):
    doc = _load_json_file(path)
    if isinstance(doc, dict) and isinstance(doc.get("region"), dict):
        doc = doc["region"]
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a region document")
    try:
        return region_from_dict(doc)
    except ShapeMismatch as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _load_system_file(path: str) -> LinearSystem:
    """Rows are coefficient lists with the bound appended."""
    doc = _load_json_file(path)
    if not isinstance(doc, dict) or "variables" not in doc:
        raise ParseError(f"{path}: expected an object with 'variables'")
    variables = [str(v) for v in doc["variables"]]
    width = len(variables) + 1

    def rows(key) -> np.ndarray:
        body = doc.get(key, ())
        if not isinstance(body, (list, tuple)):
            raise ParseError(f"{path}: '{key}' must be a list of rows")
        out = np.zeros((len(body), width))
        for i, row in enumerate(body):
            if not isinstance(row, (list, tuple)) or len(row) != width:
                raise ParseError(
                    f"{path}: every {key} row needs {width} numbers"
                )
            if not all(_number(c) for c in row):
                raise ParseError(f"{path}: a {key} row holds a non-number")
            try:
                out[i] = [float(c) for c in row]
            except OverflowError as exc:
                raise ParseError(
                    f"{path}: a {key} row holds a number too large for a float"
                ) from exc
            except (TypeError, ValueError) as exc:
                raise ParseError(
                    f"{path}: non-numeric entry in a {key} row"
                ) from exc
            if not np.isfinite(out[i]).all():
                raise ParseError(f"{path}: NaN or an infinity in a {key} row")
        return out

    nonneg = doc.get("nonnegative", ())
    if not isinstance(nonneg, (list, tuple)):
        raise ParseError(
            f"{path}: 'nonnegative' must list variable names"
        )
    ineqs, eqs = rows("inequalities"), rows("equalities")
    return LinearSystem(
        variables, ineqs[:, :-1], ineqs[:, -1], eqs[:, :-1], eqs[:, -1],
        frozenset(str(v) for v in nonneg),
    )


def _document_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _vertex_csv(region_doc: dict) -> str:
    lines = ["R1,R2"]
    for x, y in region_doc["vertices"]:
        lines.append(f"{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"


def _emit(doc: dict, out: str | None, log_lines=None) -> None:
    """Write the document (and csv/log siblings) or print to stdout."""
    if out is None:
        sys.stdout.write(_document_text(doc))
        return
    base = out[:-5] if out.endswith(".json") else out
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(_document_text(doc))
    with open(base + ".csv", "w", encoding="utf-8") as handle:
        handle.write(_vertex_csv(doc["region"]))
    if log_lines is not None:
        with open(base + ".log", "w", encoding="utf-8") as handle:
            handle.write("\n".join(log_lines) + ("\n" if log_lines else ""))


def _cmd_classify(args, opts: dict) -> int:
    channel = _load_channel_file(args.channel)
    report = classify(channel)
    lines = [
        f"z={'true' if report.is_z else 'false'}",
        f"degraded={'true' if report.is_degraded else 'false'}",
        "semi_deterministic="
        + ("true" if report.is_semi_deterministic else "false"),
    ]
    if opts["hi_check"]:
        cfg = _config(
            SearchConfig,
            seed=opts["seed"],
            num_samples=opts["samples"],
            card_v12=opts["card_v12"],
        )
        hi = hi_regime_falsify(channel, cfg)
        lines.append(f"hi_regime={hi.status}")
        lines.append(f"hi_margin={hi.margin:.12g}")
        if hi.condition is not None:
            lines.append(f"hi_condition={hi.condition}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_inner(args, opts: dict) -> int:
    channel = _load_channel_file(args.channel)
    cfg = _config(
        SamplerConfig,
        seed=opts["seed"],
        num_samples=opts["samples"],
        **{k: opts[k] for k in opts if k.startswith("card_")},
    )
    region, log = inner_region(channel, cfg)
    doc = {
        "region": region_to_dict(region),
        "log": list(log),
        "record": {
            "kind": "achievable-sample-union",
            "samples": opts["samples"],
            "seed": opts["seed"],
        },
    }
    _emit(doc, opts["out"], log_lines=list(log))
    return 0


def _cmd_outer(args, opts: dict) -> int:
    channel = _load_channel_file(args.channel)
    cfg = _config(
        SearchConfig,
        seed=opts["seed"],
        num_samples=opts["samples"],
        card_v12=opts["card_v12"],
        fan=opts["fan"],
    )
    region, caveat = outer_region_estimate(channel, cfg)
    doc = {"region": region_to_dict(region), "caveat": caveat}
    _emit(doc, opts["out"])
    return 0


def _cmd_capacity(args, opts: dict) -> int:
    channel = _load_channel_file(args.channel)
    cfg = _config(
        SearchConfig,
        seed=opts["seed"],
        num_samples=opts["samples"],
        card_v12=opts["card_v12"],
    )
    report = None
    if opts["klass"] == "degraded-z":
        region, evaluated = capacity_degraded_z(channel, cfg)
    else:
        region, report, evaluated = capacity_semidet_hi(channel, cfg)
    doc = {
        "region": region_to_dict(region),
        "class": opts["klass"],
        "record": {
            "samples": opts["samples"],
            "seed": opts["seed"],
            "evaluated": len(evaluated),
        },
    }
    if report is not None:
        doc["report"] = report.to_dict()
    _emit(doc, opts["out"])
    return 0


def _cmd_compare(args, opts: dict) -> int:
    if not (math.isfinite(opts["tol"]) and opts["tol"] >= 0):
        raise UsageError(f"--tol must be a finite number >= 0, not {opts['tol']!r}")
    region_a = _load_region_file(args.region_a)
    region_b = _load_region_file(args.region_b)
    a_in_b = region_contains(region_b, region_a, tol=opts["tol"])
    b_in_a = region_contains(region_a, region_b, tol=opts["tol"])
    sys.stdout.write(
        f"a_contains_b={'true' if b_in_a else 'false'}\n"
        f"b_contains_a={'true' if a_in_b else 'false'}\n"
    )
    return 0


def _cmd_fm(args, opts: dict) -> int:
    if not opts["keep"]:
        raise UsageError("fm requires --keep with two comma-separated labels")
    keep = [part.strip() for part in opts["keep"].split(",") if part.strip()]
    if len(keep) != 2:
        raise UsageError("--keep needs exactly two labels, e.g. R1,R2")
    if keep[0] == keep[1]:
        raise UsageError(f"--keep names {keep[0]!r} twice")
    system = _load_system_file(args.system)
    for label in keep:
        if label not in system.variables:
            raise UsageError(f"--keep label {label!r} not in the system")
    region = polygon_extract(
        project_to_plane(system, keep[0], keep[1]), keep[0], keep[1]
    )
    doc = {"region": region_to_dict(region), "kept": keep}
    _emit(doc, opts["out"])
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "inner": _cmd_inner,
    "outer": _cmd_outer,
    "capacity": _cmd_capacity,
    "compare": _cmd_compare,
    "fm": _cmd_fm,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, _resolve(args))
    except (ParseError, UsageError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"UsageError: {exc}\n")
        return 2
    except CifcError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
