"""Channel objects: the two-sender, two-receiver tensor and its structure.

The channel has three inputs (the primary sender's symbol ``x1``, the
cognitive sender's symbol ``x2``, and the symbol ``x3`` transmitted by the
cooperating second destination) and two outputs (``y1`` at destination 1,
``y2`` at destination 2).  A :class:`ChannelSpec` is the single-letter
transition tensor p(y1,y2 | x1,x2,x3) over finite alphabets.

This module also hosts the structural classifiers (one-sided interference,
degradedness and semi-determinism).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from collections.abc import Sequence

import numpy as np

from .errors import IndexOutOfRange, ParseError, RowSumError, ShapeMismatch
from .pmf import (
    ConditionalFactor, Information, _cardinalities, _normalized, _number,
)

AXES = ("x1", "x2", "x3", "y1", "y2")


@dataclasses.dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Transition tensor p(y1,y2|x1,x2,x3), indexed (x1,x2,x3,y1,y2)."""

    cards: tuple[int, int, int, int, int]
    transition: np.ndarray

    def __post_init__(self):
        cards = _cardinalities(self.cards, "need five cardinalities, integers >= 1", 5)
        t = _normalized(self.transition, cards, 3, "p(y1,y2|x1,x2,x3)", RowSumError)
        object.__setattr__(self, "cards", cards)
        object.__setattr__(self, "transition", t)

    def card(self, name: str) -> int:
        return self.cards[AXES.index(name)]

    @functools.cached_property
    def output_entropies(self) -> np.ndarray:
        """H(Y1|x), H(Y2|x) and H(Y1,Y2|x) in bits on a last axis, for each
        input x: shape (x1, x2, x3, 3).  Computed on first use."""
        table = Information(self.transition.reshape(-1, *self.cards[3:]), "y1 y2")
        return np.stack(table.h("y1", "y2", "y1 y2"), axis=-1).reshape(*self.cards[:3], 3)

    @property
    def output1_given_inputs(self) -> np.ndarray:
        """p(y1|x1,x2,x3), shape (x1,x2,x3,y1)."""
        return self.transition.sum(axis=4)

    @property
    def output2_given_inputs(self) -> np.ndarray:
        """p(y2|x1,x2,x3), shape (x1,x2,x3,y2)."""
        return self.transition.sum(axis=3)

    def as_factor(self) -> ConditionalFactor:
        """The channel as a conditional factor (y1,y2) given (x1,x2,x3),
        built on first use and held, with a read-only table."""
        return self._factor

    @functools.cached_property
    def _factor(self) -> ConditionalFactor:
        pairs = tuple(zip(AXES, self.cards))
        factor = ConditionalFactor(pairs[3:], pairs[:3], self.transition)
        factor.table.setflags(write=False)
        return factor

    @classmethod
    def from_outputs(cls, cards: Sequence[int], fn) -> "ChannelSpec":
        """Deterministic channel: ``fn(x1,x2,x3) -> (y1,y2)``; a result that
        is not two symbols raises ``ShapeMismatch``, and an output outside
        its alphabet ``IndexOutOfRange``."""
        cards = _cardinalities(cards, "need five cardinalities, integers >= 1", 5)
        table = np.zeros(cards)
        for x in np.ndindex(*cards[:3]):
            y = tuple(int(v) for v in fn(*x))
            if len(y) != 2:
                raise ShapeMismatch(f"fn{x} returned {len(y)} symbols, not (y1, y2)")
            if not all(0 <= v < c for v, c in zip(y, cards[3:])):
                raise IndexOutOfRange(f"fn{x} = {y} is outside the alphabets {cards[3:]}")
            table[x + y] = 1.0
        return cls(cards, table)


@dataclasses.dataclass(frozen=True)
class ClassReport:
    """Structural classification flags for a channel."""

    is_z: bool
    is_degraded: bool
    is_semi_deterministic: bool


def load_channel(text: str) -> ChannelSpec:
    """Parse a channel document.

    The document is JSON with integer fields "x1","x2","x3","y1","y2" and
    a flat array "p" of length x1*x2*x3*y1*y2, row-major over
    (x1,x2,x3,y1,y2), of finite numbers.  A string, a boolean or an array
    where a number belongs is a ``ParseError``, whatever it holds.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"channel document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("channel document must be a JSON object")
    try:
        cards = tuple(doc[name] for name in AXES)
        flat = doc["p"]
    except KeyError as exc:
        raise ParseError(f"channel document lacks field {exc.args[0]!r}") from exc
    if not all(_number(c, integral=True) for c in cards):
        raise ParseError(f"channel cardinalities must be integers: {cards}")
    cards = tuple(int(c) for c in cards)
    if min(cards) < 1:
        raise ShapeMismatch(
            f"channel cardinalities must be >= 1: {dict(zip(AXES, cards))}"
        )
    if not isinstance(flat, list) or not all(_number(v) for v in flat):
        raise ParseError('channel field "p" must be a flat array of numbers')
    expected = math.prod(cards)
    if len(flat) != expected:
        raise ShapeMismatch(
            f'field "p" has {len(flat)} entries, expected {expected}'
        )
    try:
        tensor = np.asarray(flat, dtype=np.float64).reshape(cards)
    except OverflowError as exc:
        raise ParseError('field "p" holds a number too large for a float') from exc
    except ValueError as exc:
        raise ParseError(f'field "p" holds non-numeric data: {exc}') from exc
    if not np.isfinite(tensor).all():
        raise ParseError('field "p" holds NaN, an infinity or null')
    return ChannelSpec(cards, tensor)


def dump_channel(channel: ChannelSpec) -> str:
    """Inverse of :func:`load_channel`, stable formatting."""
    doc = {name: channel.card(name) for name in AXES}
    doc["p"] = [float(v) for v in channel.transition.reshape(-1)]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def classify(channel: ChannelSpec, tol: float = 1e-9) -> ClassReport:
    """Structural flags (the high-interference check is in ``capacity``).

    One-sided interference needs the first output to ignore the cognitive
    sender and the two outputs to be conditionally independent given the
    inputs.  Degradedness asks the first output to be reachable from the
    second output plus the cooperative symbol alone.  Semi-determinism
    asks the second output to be a function of the inputs.
    """
    t = channel.transition
    p_y1 = channel.output1_given_inputs
    p_y2 = channel.output2_given_inputs

    constant_in_x2 = float(np.max(np.abs(p_y1 - p_y1[:, :1, :, :]))) <= tol
    product_form = (
        float(np.max(np.abs(t - p_y1[..., :, None] * p_y2[..., None, :]))) <= tol
    )
    is_z = constant_in_x2 and product_form

    # degraded: p(y1 | y2, x1, x2, x3) must not depend on (x1, x2),
    # checked only where the conditioning event is realizable; each row is
    # compared with the first realizable (x1, x2) row of its (x3, y2)
    n1, n2, n3, m1, m2 = channel.cards
    mass = p_y2.reshape(n1 * n2, n3, 1, m2)
    real = mass > tol
    cells = t.reshape(n1 * n2, n3, m1, m2)
    rows = np.divide(cells, mass, out=np.zeros_like(cells), where=real)
    reference = np.take_along_axis(rows, np.argmax(real, axis=0)[None], axis=0)
    is_degraded = not np.any(real & (np.abs(rows - reference) > tol))

    rounded = np.minimum(np.abs(p_y2), np.abs(p_y2 - 1.0))
    is_semi_deterministic = float(rounded.max()) <= tol

    return ClassReport(
        is_z=is_z,
        is_degraded=is_degraded,
        is_semi_deterministic=is_semi_deterministic,
    )

