"""Workload definitions: the commands of one pass, their inputs and checks.

Each workload is a fixed list of ``cifc-udc`` command lines. The workload
seed is the only source of randomness: it becomes every command's
``--seed`` and, for ``large-alphabet``, it also draws the channel.

The output checks here read the documents the commands wrote and never
call into the package, so a defect in the package cannot hide itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

UNIT_SQUARE_TOL = 1e-3
CONTAINMENT_TOL = 1e-6
VERTEX_TOL = 1e-9

# cardinalities (x1, x2, x3, y1, y2) of the generated channel
LARGE_CARDS = (3, 3, 2, 3, 3)
# Dirichlet weight added at the mean output of each input; the rows stay
# dense, and the regions vary little from seed to seed
LARGE_PEAK = 300.0

WHY = {
    "inner-fixtures": (
        "inner on three fixture channels: the rate-split projection and the "
        "pmf constants do the work; the outer and capacity searches never run"
    ),
    "search-fixtures": (
        "outer, both capacity classes and the hi-regime falsifier on the "
        "fixtures: small dispatch-bound marginal_entropies calls and the "
        "ascent loop; the inner projection never runs"
    ),
    "large-alphabet": (
        "inner and outer on a seeded dense channel at |X|=(3,3,2,3,3): about "
        "200 KB per marginal_entropies call against 10 KB on the fixtures, "
        "and unsaturated regions, so the areas show a weaker search"
    ),
}


@dataclass
class Outcome:
    """What one command produced."""

    rc: int
    stdout: str
    stderr: str
    doc: dict | None = None
    files: dict[str, bytes] = field(default_factory=dict)

    def region(self) -> dict:
        return self.doc["region"]

    def bytes_written(self) -> int:
        return len(self.stdout.encode()) + sum(len(b) for b in self.files.values())


Check = Callable[[Outcome, dict], list]


@dataclass
class Command:
    label: str
    kind: str  # the subcommand
    argv: list
    out: Path | None = None
    check: Check | None = None


# ---------------------------------------------------------------------------
# region geometry, on the documents' own numbers

def area(vertices) -> float:
    """Shoelace area of a vertex walk, in bits squared."""
    n = len(vertices)
    twice = sum(
        vertices[i][0] * vertices[(i + 1) % n][1]
        - vertices[(i + 1) % n][0] * vertices[i][1]
        for i in range(n)
    )
    return abs(twice) / 2.0


def _slack(plane, point) -> float:
    a, b, c = plane
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return -math.inf
    return (a * point[0] + b * point[1] - c) / scale


def region_problems(region: dict) -> list:
    """A well-formed, nonempty region in the nonnegative quadrant."""
    try:
        planes = [tuple(float(v) for v in row) for row in region["halfplanes"]]
        verts = [tuple(float(v) for v in row) for row in region["vertices"]]
        empty = region["empty"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed region: {exc!r}"]
    if empty or not verts:
        return ["region is empty"]
    if any(len(p) != 3 for p in planes) or any(len(v) != 2 for v in verts):
        return ["region rows have the wrong width"]
    if not all(math.isfinite(x) for row in planes + verts for x in row):
        return ["region holds a non-finite number"]
    problems = []
    if min(min(v) for v in verts) < -VERTEX_TOL:
        problems.append("a vertex leaves the nonnegative quadrant")
    worst = max(_slack(p, v) for p in planes for v in verts)
    if worst > VERTEX_TOL:
        problems.append(f"a vertex violates a halfplane by {worst:.3g}")
    return problems


def unit_square_problems(region: dict, tol: float = UNIT_SQUARE_TOL) -> list:
    """The region equals [0,1]^2 within tol."""
    verts = region["vertices"]
    if any(not -tol <= x <= 1 + tol for v in verts for x in v):
        return ["region reaches outside the unit square"]
    if area(verts) < 1.0 - 4 * tol:
        return [f"region area {area(verts):.6g} falls short of the unit square"]
    for corner in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        if max(_slack(p, corner) for p in region["halfplanes"]) > tol:
            return [f"region misses the unit-square corner {corner}"]
    return []


def containment_problems(inner: dict, outer: dict, tol: float = CONTAINMENT_TOL) -> list:
    """Every inner vertex satisfies every outer halfplane within tol."""
    worst = max(
        _slack(p, v) for p in outer["halfplanes"] for v in inner["vertices"]
    )
    if worst > tol:
        return [f"inner region leaves the outer region by {worst:.3g}"]
    return []


# ---------------------------------------------------------------------------
# checks attached to commands

def _region_check(extra: Callable[[dict, dict], list] | None = None) -> Check:
    def check(outcome: Outcome, done: dict) -> list:
        if outcome.doc is None:
            return ["no JSON document was written"]
        problems = region_problems(outcome.region())
        if not problems and extra is not None:
            problems = extra(outcome.region(), done)
        return problems
    return check


def _unit_square(region: dict, done: dict) -> list:
    return unit_square_problems(region)


def _inside_outer_of(inner_label: str):
    def extra(region: dict, done: dict) -> list:
        inner = done.get(inner_label)
        if inner is None or inner.doc is None:
            return [f"{inner_label} produced no region to compare"]
        return containment_problems(inner.region(), region)
    return extra


def _capacity_report(status: str) -> Check:
    base = _region_check()

    def check(outcome: Outcome, done: dict) -> list:
        problems = base(outcome, done)
        if problems:
            return problems
        found = outcome.doc.get("report", {}).get("status")
        if found != status:
            return [f"falsifier report says {found!r}, expected {status!r}"]
        return []
    return check


def _hi_regime(status: str) -> Check:
    def check(outcome: Outcome, done: dict) -> list:
        line = f"hi_regime={status}"
        if line not in outcome.stdout.splitlines():
            return [f"classify did not print {line}"]
        return []
    return check


# ---------------------------------------------------------------------------
# inputs and command lists

def large_channel(seed: int) -> dict:
    """Dense Dirichlet channel at LARGE_CARDS, drawn from the seed alone.

    Each row p(y1, y2 | x1, x2, x3) is Dirichlet with weight one on every
    output plus LARGE_PEAK on y1 = x1 + x3, y2 = x1 + x2 (mod 3).
    """
    cx1, cx2, cx3, cy1, cy2 = LARGE_CARDS
    rng = np.random.default_rng(seed)
    rows = []
    for x1 in range(cx1):
        for x2 in range(cx2):
            for x3 in range(cx3):
                alpha = np.ones(cy1 * cy2)
                alpha[((x1 + x3) % cy1) * cy2 + (x1 + x2) % cy2] += LARGE_PEAK
                rows.append(rng.dirichlet(alpha))
    doc = dict(zip(("x1", "x2", "x3", "y1", "y2"), LARGE_CARDS))
    doc["p"] = [float(v) for v in np.concatenate(rows)]
    return doc


def _sized(value: int, override: int | None) -> str:
    return str(value if override is None else override)


def prepare(
    name: str,
    seed: int,
    root: Path,
    workdir: Path,
    samples: int | None = None,
    fan: int | None = None,
) -> list:
    """Write the workload's inputs into workdir and return its commands.

    The sizes are the README's commands scaled down so that one pass takes
    a few seconds on two cores and a timed run holds several passes.
    ``samples`` and ``fan`` replace every command's sizes; they exist for
    quick smoke runs and are left unset for measurements.
    """
    channels = root / "channels"
    workdir.mkdir(parents=True, exist_ok=True)
    s = str(seed)

    def fixture(file: str) -> str:
        path = channels / file
        json.loads(path.read_text(encoding="utf-8"))
        return str(path)

    def search(kind: str, label: str, args: list, check: Check) -> Command:
        out = workdir / f"{label.replace(' ', '-')}.json"
        argv = [kind, *args, "--seed", s, "--threads", "1", "--out", str(out)]
        return Command(label, kind, argv, out, check)

    def classify(file: str, status: str) -> Command:
        argv = ["classify", fixture(file), "--hi-check",
                "--samples", _sized(20, samples), "--seed", s]
        return Command(f"classify {file[:-5]}", "classify", argv, None,
                       _hi_regime(status))

    if name == "inner-fixtures":
        return [
            search("inner", f"inner {file[:-5]}",
                   [fixture(file), "--samples", _sized(20, samples)], check)
            for file, check in (
                ("clean.json", _region_check(_unit_square)),
                ("degraded_z.json", _region_check(_unit_square)),
                ("semidet.json", _region_check()),
            )
        ]
    if name == "search-fixtures":
        return [
            search("outer", "outer clean",
                   [fixture("clean.json"), "--samples", _sized(50, samples),
                    "--fan", _sized(8, fan)],
                   _region_check(_unit_square)),
            search("capacity", "capacity degraded_z",
                   [fixture("degraded_z.json"), "--class", "degraded-z",
                    "--samples", _sized(20, samples)],
                   _region_check(_unit_square)),
            search("capacity", "capacity hi_in_class",
                   [fixture("hi_in_class.json"), "--class", "semidet-hi",
                    "--samples", _sized(20, samples)],
                   _capacity_report("no-violation-found")),
            classify("hi_falsified.json", "falsified"),
            classify("hi_degenerate.json", "no-violation-found"),
            classify("semidet.json", "falsified"),
        ]
    if name == "large-alphabet":
        path = workdir / "large.json"
        path.write_text(json.dumps(large_channel(seed)), encoding="utf-8")
        return [
            search("inner", "inner large",
                   [str(path), "--samples", _sized(10, samples)],
                   _region_check()),
            search("outer", "outer large",
                   [str(path), "--card-v12", "3", "--fan", _sized(3, fan),
                    "--samples", _sized(10, samples)],
                   _region_check(_inside_outer_of("inner large"))),
        ]
    raise KeyError(name)
