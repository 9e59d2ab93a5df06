"""Command-line front end.

Every subcommand is deterministic given its flags: fixed seeds drive all
sampling, and output files are byte stable.  ``--threads`` is accepted and
ignored; every command runs single-threaded.  Exit status is 0 on success,
1 on domain errors (out-of-class channel, infeasible system), 2 on usage
or parse problems, including non-finite numbers in a channel file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .capacity import capacity_degraded_z, capacity_semidet_hi, hi_regime_falsify
from .channel import classify, load_channel
from .errors import CifcError, ParseError, UsageError
from .inner import SamplerConfig, inner_region
from .outer import SearchConfig, outer_region_estimate
from .polytope import (
    LinearSystem,
    polygon_extract,
    project_to_plane,
    region_contains,
    region_from_dict,
    region_to_dict,
)

# hard defaults per subcommand; config files and flags both resolve
# against these tables so precedence stays in one place
_OPTION_TABLES = {
    "classify": {
        "hi_check": (bool, False),
        "samples": (int, 0),
        "seed": (int, 0),
        "card_v12": (int, 0),
    },
    "inner": {
        "samples": (int, 0),
        "seed": (int, 0),
        "card_u1p": (int, 2),
        "card_u1": (int, 2),
        "card_v1": (int, 2),
        "card_u2p": (int, 2),
        "card_u2": (int, 2),
        "card_v12": (int, 2),
        "card_v2": (int, 2),
        "card_yh2": (int, 2),
        "threads": (int, 1),
        "out": (str, None),
    },
    "outer": {
        "samples": (int, 0),
        "seed": (int, 0),
        "card_v12": (int, 0),
        "fan": (int, 64),
        "threads": (int, 1),
        "out": (str, None),
    },
    "capacity": {
        "klass": (str, None),
        "samples": (int, 0),
        "seed": (int, 0),
        "card_v12": (int, 0),
        "threads": (int, 1),
        "out": (str, None),
    },
    "compare": {
        "tol": (float, 1e-9),
    },
    "fm": {
        "keep": (str, None),
        "out": (str, None),
    },
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cifc-udc",
        description="Rate regions for the cognitive interference channel "
        "with a cooperating destination.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, table):
        if "samples" in table:
            p.add_argument("--samples", type=int, default=None)
        if "seed" in table:
            p.add_argument("--seed", type=int, default=None)
        if "threads" in table:
            p.add_argument("--threads", type=int, default=None)
        if "out" in table:
            p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)

    p = sub.add_parser("classify", help="print structural channel flags")
    p.add_argument("channel")
    p.add_argument("--hi-check", dest="hi_check", action="store_true",
                   default=None)
    p.add_argument("--card-v12", dest="card_v12", type=int, default=None)
    add_common(p, _OPTION_TABLES["classify"])

    p = sub.add_parser("inner", help="achievable-rate region estimate")
    p.add_argument("channel")
    for name in ("u1p", "u1", "v1", "u2p", "u2", "v12", "v2", "yh2"):
        p.add_argument(f"--card-{name}", dest=f"card_{name}", type=int,
                       default=None)
    add_common(p, _OPTION_TABLES["inner"])

    p = sub.add_parser("outer", help="converse-bound region estimate")
    p.add_argument("channel")
    p.add_argument("--card-v12", dest="card_v12", type=int, default=None)
    p.add_argument("--fan", type=int, default=None)
    add_common(p, _OPTION_TABLES["outer"])

    p = sub.add_parser("capacity", help="capacity region for a solvable class")
    p.add_argument("channel")
    p.add_argument("--class", dest="klass", required=True,
                   choices=("degraded-z", "semidet-hi"))
    p.add_argument("--card-v12", dest="card_v12", type=int, default=None)
    add_common(p, _OPTION_TABLES["capacity"])

    p = sub.add_parser("compare", help="mutual containment of two regions")
    p.add_argument("region_a")
    p.add_argument("region_b")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("fm", help="project a linear system onto two variables")
    p.add_argument("system")
    p.add_argument("--keep", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)

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


def _resolve(args, table) -> dict:
    """Flag value if given, else config value, else hard default."""
    config = _read_config(args.config) if args.config else {}
    unknown = set(config) - set(table)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for name, (kind, default) in table.items():
        given = getattr(args, name, None)
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


def _load_region_file(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.loads(handle.read())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and isinstance(doc.get("region"), dict):
        doc = doc["region"]
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a region document")
    return region_from_dict(doc)


def _load_system_file(path: str) -> LinearSystem:
    """Rows are coefficient lists with the bound appended."""
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.loads(handle.read())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "variables" not in doc:
        raise ParseError(f"{path}: expected an object with 'variables'")
    variables = [str(v) for v in doc["variables"]]
    width = len(variables) + 1

    def rows(key):
        body = doc.get(key, ())
        if not isinstance(body, (list, tuple)):
            raise ParseError(f"{path}: '{key}' must be a list of rows")
        out = []
        for row in body:
            if not isinstance(row, (list, tuple)) or len(row) != width:
                raise ParseError(
                    f"{path}: every {key} row needs {width} numbers"
                )
            try:
                numbers = [float(c) for c in row]
            except (TypeError, ValueError) as exc:
                raise ParseError(
                    f"{path}: non-numeric entry in a {key} row"
                ) from exc
            if not all(math.isfinite(c) for c in numbers):
                raise ParseError(f"{path}: NaN or an infinity in a {key} row")
            out.append((dict(zip(variables, numbers)), numbers[-1]))
        return out

    nonneg = doc.get("nonnegative", ())
    if not isinstance(nonneg, (list, tuple)):
        raise ParseError(
            f"{path}: 'nonnegative' must list variable names"
        )
    return LinearSystem.from_rows(
        variables,
        inequalities=rows("inequalities"),
        equalities=rows("equalities"),
        nonnegative=[str(v) for v in nonneg],
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


def _cmd_classify(args) -> int:
    opts = _resolve(args, _OPTION_TABLES["classify"])
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


def _cmd_inner(args) -> int:
    opts = _resolve(args, _OPTION_TABLES["inner"])
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


def _cmd_outer(args) -> int:
    opts = _resolve(args, _OPTION_TABLES["outer"])
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


def _cmd_capacity(args) -> int:
    opts = _resolve(args, _OPTION_TABLES["capacity"])
    channel = _load_channel_file(args.channel)
    cfg = _config(
        SearchConfig,
        seed=opts["seed"],
        num_samples=opts["samples"],
        card_v12=opts["card_v12"],
    )
    if args.klass == "degraded-z":
        region, evaluated = capacity_degraded_z(channel, cfg)
        doc = {
            "region": region_to_dict(region),
            "class": "degraded-z",
            "record": {
                "samples": opts["samples"],
                "seed": opts["seed"],
                "evaluated": len(evaluated),
            },
        }
    else:
        region, report, evaluated = capacity_semidet_hi(channel, cfg)
        doc = {
            "region": region_to_dict(region),
            "class": "semidet-hi",
            "report": report.to_dict(),
            "record": {
                "samples": opts["samples"],
                "seed": opts["seed"],
                "evaluated": len(evaluated),
            },
        }
    _emit(doc, opts["out"])
    return 0


def _cmd_compare(args) -> int:
    opts = _resolve(args, _OPTION_TABLES["compare"])
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


def _cmd_fm(args) -> int:
    opts = _resolve(args, _OPTION_TABLES["fm"])
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
        return _COMMANDS[args.command](args)
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
