"""Dense joint distributions over named finite variables, and the one
entropy engine of the package.

A :class:`JointPMF` stores one probability tensor whose axes are labeled
finite variables.  Joints are assembled from chains of
:class:`ConditionalFactor` objects.  Every information term of the
package, always in bits, is a sum of marginal entropies from an
:class:`Information` table over a tensor and its space-separated axis
labels, clipped at zero by :func:`clip_information`.

Conventions used throughout:

* ``0 * log 0 = 0`` (zero-probability cells contribute nothing),
* information terms are clamped to ``0`` after checking they are not
  below ``MI_GUARD`` (a real violation raises :class:`NumericsError`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence

import numpy as np

from .errors import (
    CardinalityMismatch,
    DanglingConditioner,
    DuplicateLabel,
    EmptyList,
    InvalidFactor,
    MissingVariable,
    NegativeEntry,
    NumericsError,
    RepeatedTarget,
    ShapeMismatch,
    SumNotOne,
    TooLarge,
    UnknownLabel,
)

# entries may dip this far below zero before we call it an error
NEG_TOL = 1e-12
# total (or per-row) mass must match 1 this closely
SUM_TOL = 1e-9
# an information measure below this is a bug, not roundoff
MI_GUARD = -1e-9
# most cells a joint tensor may hold: 2**24 float64 cells are 128 MiB
JOINT_CELL_LIMIT = 2**24


def check_cells(cells: int, what: str) -> None:
    """Raise ``TooLarge`` when ``what`` would hold more than
    ``JOINT_CELL_LIMIT`` cells."""
    if cells > JOINT_CELL_LIMIT:
        raise TooLarge(
            f"{what} would hold {cells} cells, over the budget of {JOINT_CELL_LIMIT}"
        )


def point_mass(symbols, card: int) -> np.ndarray:
    """One-hot table: ``symbols`` gains a last axis of extent ``card``
    that holds 1.0 at the given symbol and 0.0 elsewhere."""
    return (np.asarray(symbols)[..., None] == np.arange(card)).astype(np.float64)


def _number(value, integral: bool = False) -> bool:
    """Whether ``value`` may stand where a number belongs: a string, a
    boolean (numpy's too), a list or a dict may not, whatever it holds.
    An ``integral`` one is also whole: 2 and 2.0 are, 2.5, NaN and
    infinities are not."""
    if isinstance(value, (str, bool, np.bool_, list, dict)):
        return False
    try:
        return not integral or int(value) == value
    except (TypeError, ValueError, OverflowError):
        return False


def _whole(value, low: int) -> bool:
    """Whether ``value`` is an integral ``_number`` >= ``low``."""
    return _number(value, integral=True) and value >= low


def _cardinalities(cards, what: str, count: int | None = None) -> tuple[int, ...]:
    """``cards`` as ints.  One that is not an integer >= 1 (``_whole``), or
    a count other than ``count``, raises ``ShapeMismatch`` with ``what``."""
    cards = tuple(cards)
    if not all(_whole(c, 1) for c in cards) or count not in (None, len(cards)):
        raise ShapeMismatch(f"{what}, got {cards}")
    return tuple(int(c) for c in cards)


def _settings(config, minimums: dict[str, int]) -> None:
    """Store each setting of a frozen ``config`` named in ``minimums`` as an int;
    one that is not ``_whole`` at its minimum raises ``ValueError`` naming it."""
    for name, low in minimums.items():
        value = getattr(config, name)
        if not _whole(value, low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        object.__setattr__(config, name, int(value))


def _labeled(pairs, kind: str) -> tuple[tuple[str, int], ...]:
    """(label, cardinality) ``pairs`` with nonempty distinct labels."""
    labels = tuple(str(l) for l, _ in pairs)
    if "" in labels or len(set(labels)) < len(labels):
        raise DuplicateLabel(f"{kind} labels must be nonempty and distinct: {labels}")
    need = f"{kind} cardinalities must be integers >= 1"
    return tuple(zip(labels, _cardinalities((c for _, c in pairs), need)))


def _factor_pairs(targets, given):
    """A factor's (targets, given) pairs through ``_labeled``, split again."""
    targets, given = tuple(targets), tuple(given)
    pairs = _labeled(targets + given, "factor")
    return pairs[:len(targets)], pairs[len(targets):]


def _batch(table, shape: tuple) -> tuple:
    """(n,) when ``table`` has one more leading axis than ``shape``, else ()."""
    return np.shape(table)[:1] if np.ndim(table) == len(shape) + 1 else ()


def _row(index, shape: tuple, given: int) -> str:
    """' row (i, ...)', the first ``given`` axes of flat ``index`` in ``shape``."""
    row = np.unravel_index(int(index), shape)[:given]
    return f" row {tuple(int(i) for i in row)}" if given else ""


def _normalized(table, shape: tuple, given: int, what: str, error=SumNotOne) -> np.ndarray:
    """``table`` as float64 with tiny negatives clipped to zero, checked to
    have ``shape`` and divided by the sums of its rows, one row per cell of
    the first ``given`` axes; a leading batch axis is one more of them.
    NaN, an infinity or an entry below ``-NEG_TOL`` raises ``NegativeEntry``,
    and a row sum further than ``SUM_TOL`` from one raises ``error``; both
    name the row."""
    table = np.asarray(table, dtype=np.float64)
    if not np.isfinite(table).all() or table.min(initial=0.0) < -NEG_TOL:
        bad = int(np.argmin(np.isfinite(table) & (table >= -NEG_TOL)))
        at = _row(bad, table.shape, given)
        raise NegativeEntry(f"{what}{at} has bad entry {float(table.flat[bad])!r}")
    if table.shape != shape:
        raise ShapeMismatch(f"{what} shape {table.shape} does not match {shape}")
    table = np.clip(table, 0.0, None)
    sums = table.sum(axis=tuple(range(given, table.ndim)), keepdims=True)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums.flat[worst] - 1.0) > SUM_TOL:
        at = _row(worst, sums.shape, given)
        raise error(f"{what}{at} sums to {float(sums.flat[worst])!r}")
    return np.divide(table, sums, out=table)  # in place: the clipped copy is ours


@dataclasses.dataclass(frozen=True, eq=False)
class JointPMF:
    """Joint distribution of named finite variables as a dense tensor.

    ``variables`` pairs each axis label with its cardinality, in axis
    order.  ``probs`` holds the probabilities, normalized exactly to one
    at construction time, or a batch of joints on one more leading axis.
    """

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray

    def __post_init__(self):
        variables = _labeled(self.variables, "variable")
        shape = tuple(c for _, c in variables)
        lead = _batch(self.probs, shape)
        probs = _normalized(self.probs, lead + shape, len(lead), "joint pmf")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probs", probs)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.variables)


# ---------------------------------------------------------------------------
# the entropy engine; supports a leading batch axis

def _sum_out(a: np.ndarray, axes: tuple) -> np.ndarray:
    """``a`` summed over ``axes``, kept at extent 1, by one ``np.add.reduce``
    over the first axis of a (reduced cells, kept cells) matrix.  numpy
    adds the reduced cells left to right in C order, or pairwise where they
    lie contiguous (trailing a C-contiguous ``a``) or one cell is kept; a
    leading batch axis never changes which, so no row's bytes depend on
    the rows beside it."""
    kept = [x for x in range(a.ndim) if x not in axes]
    shape = tuple(1 if x in axes else n for x, n in enumerate(a.shape))
    flat = a.transpose(list(axes) + kept).reshape(-1, math.prod(shape))
    return np.add.reduce(flat, axis=0).reshape(shape)


@functools.lru_cache(maxsize=256)
def _axis_set(names: tuple[str, ...], group: str) -> frozenset:
    """Positions in ``names`` of the space-separated labels in ``group``; a
    label not in ``names`` raises ``UnknownLabel``."""
    unknown = set(group.split()) - set(names)
    if unknown:
        raise UnknownLabel(f"no axis {sorted(unknown)} among {names}")
    return frozenset(names.index(name) for name in group.split())


class Information:
    """Entropies in bits of the marginals of one joint tensor whose axes
    ``labels`` names, space-separated; one extra leading axis is a batch,
    and any other axis count raises ``ShapeMismatch``.  A repeated label
    raises ``DuplicateLabel``.

    The marginals summed so far are held, keyed by axis set, with the
    tensor itself as the root.  New groups are summed largest first, each
    from the held marginal of fewest cells whose axes contain it (the
    first held on ties), and each marginal entropy is computed once, from
    its held marginal.  ``of_laws`` builds a table with two roots in place
    of the tensor."""

    def __init__(self, j: np.ndarray, labels: str):
        self.names = tuple(labels.split())
        if len(set(self.names)) < len(self.names):
            raise DuplicateLabel(f"labels {labels!r} name an axis twice")
        self._batch = j.ndim - len(self.names)
        if self._batch not in (0, 1):
            raise ShapeMismatch(f"a tensor of {j.ndim} axes is not one over {labels!r}")
        # every dropped axis stays, at extent 1
        self._marginals = {frozenset(range(len(self.names))): j}
        self._h = {}

    @classmethod
    def of_laws(cls, rows: np.ndarray, cards, labels: str, channel) -> "Information":
        """Table of the joints p(x1, [aux...], x2, x3) * p(y1, y2 | x1, x2, x3),
        one per law in ``rows`` (flat, over ``cards``), without lifting them.

        ``labels`` names the law's axes, then y1 and y2; ``channel`` is a
        ``ChannelSpec`` whose x1, x2 and x3 match ``cards``.  The two roots
        are the laws and q = sum over x2 of p * T.  A group that holds x1,
        x2, x3 and outputs S has entropy H(its inputs) plus the sum over x
        of p(x) * H(S | x), by the chain rule.  Any other group that holds
        x2 and an output has no source and raises ``MissingVariable``."""
        k = len(cards)
        if len(labels.split()) != k + 2:
            raise ShapeMismatch(f"labels {labels!r} do not name {k} law axes, y1 and y2")
        laws = np.reshape(rows, (-1,) + tuple(cards))
        # one einsum, without a BLAS path: a row's bytes do not depend on
        # the rows beside it
        q = np.einsum(
            laws, [k + 2, *range(k)], channel.transition, [0, k - 2, k - 1, k, k + 1],
            [k + 2, *range(k - 2), k - 1, k, k + 1],
        )
        inputs = frozenset(range(k))
        table = cls(laws[..., None, None], labels)
        # two roots in place of the tensor: the laws hold no output, q no x2
        table._marginals = {
            inputs: laws[..., None, None],
            inputs - {k - 2} | {k, k + 1}: q[..., None, :, :, :],
        }
        # the channel, and the sums of p(x) H(S | x) by output set S
        table._channel, table._expected = channel, {}
        return table

    def h(self, *groups: str) -> list[np.ndarray]:
        """H(G) for each group G of space-separated labels."""
        keys = [_axis_set(self.names, g) for g in groups]
        new = [k for k in dict.fromkeys(keys) if k not in self._h]
        for keep in sorted(new, key=len, reverse=True):
            self._entropy(keep)
        return [self._h[k] for k in keys]

    def _entropy(self, keep: frozenset) -> np.ndarray:
        """H(``keep``), computed once."""
        h = self._h.get(keep)
        if h is None:
            m = self._marginal(keep)
            if m is None:
                h = self._through_channel(keep)
            else:
                flat = m.reshape((len(m), -1) if self._batch else -1)
                # one temporary: p log2 p in place, with log2 1 = 0 where p = 0
                t = np.where(flat > 0, flat, 1.0)
                np.log2(t, out=t)
                t *= flat
                h = -np.sum(t, axis=-1)
            self._h[keep] = h
        return h

    def _marginal(self, keep: frozenset):
        """The marginal over ``keep``, held from now on; None when no held
        marginal contains it."""
        m = self._marginals.get(keep)
        if m is None:
            sources = [s for s in self._marginals if keep <= s]
            if not sources:
                return None
            source = min(sources, key=lambda s: self._marginals[s].size)
            axes = tuple(a + self._batch for a in sorted(source - keep))
            m = _sum_out(self._marginals[source], axes)
            self._marginals[keep] = m
        return m

    def _through_channel(self, keep: frozenset) -> np.ndarray:
        """H(G) = H(G's inputs) + sum over x of p(x) * H(G's outputs | x),
        for a group G of an ``of_laws`` table that holds x1, x2 and x3."""
        y1 = len(self.names) - 2
        xs = frozenset((0, y1 - 2, y1 - 1))
        if not xs <= keep:
            names = [self.names[a] for a in sorted(keep)]
            raise MissingVariable(f"no marginal of this table holds {names}")
        outputs = keep & {y1, y1 + 1}
        expected = self._expected.get(outputs)
        if expected is None:
            # the channel's columns: y1, y2, then both
            column = 2 if len(outputs) == 2 else min(outputs) - y1
            px = self._marginal(xs)
            hy = self._channel.output_entropies[..., column].reshape(px.shape[1:])
            expected = (px * hy).reshape(len(px), -1).sum(axis=1)
            self._expected[outputs] = expected
        return self._entropy(keep - outputs) + expected

    def cond(self, a: str, given: str) -> np.ndarray:
        """H(A|C) = H(AC) - H(C)."""
        h_ac, h_c = self.h(f"{a} {given}", given)
        return h_ac - h_c

    def mi(self, a: str, b: str, given: str = "") -> np.ndarray:
        """I(A;B|C) = H(AC) + H(BC) - H(C) - H(ABC), without H(C) if C is empty."""
        if not given:
            h_a, h_b, h_ab = self.h(a, b, f"{a} {b}")
            return h_a + h_b - h_ab
        h_ac, h_bc, h_c, h_abc = self.h(
            f"{a} {given}", f"{b} {given}", given, f"{a} {b} {given}"
        )
        return h_ac + h_bc - h_c - h_abc


def clip_information(values) -> np.ndarray:
    """Information terms clipped at 0.  A term below ``MI_GUARD`` is a bug,
    not roundoff, and raises ``NumericsError``."""
    low = float(np.min(values, initial=0.0))
    if low < MI_GUARD:
        raise NumericsError(f"an information term came out {low!r}")
    return np.clip(values, 0.0, None)


@dataclasses.dataclass(frozen=True, eq=False)
class ConditionalFactor:
    """Conditional distribution p(targets | given) as a dense table.

    ``table`` has one axis per conditioning variable followed by one axis
    per target variable; every conditioning row sums to one.  One more
    leading axis makes a batch of factors.
    """

    targets: tuple[tuple[str, int], ...]
    given: tuple[tuple[str, int], ...]
    table: np.ndarray

    def __post_init__(self):
        if not self.targets:
            raise EmptyList("factor needs at least one target variable")
        targets, given = _factor_pairs(self.targets, self.given)
        shape = tuple(c for _, c in given + targets)
        lead = _batch(self.table, shape)
        table = _normalized(self.table, lead + shape, len(lead + given), "factor table")
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "table", table)

    @property
    def target_labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.targets)

    @property
    def given_labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.given)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_modes(
        cls, targets: Sequence[tuple[str, int]], given: Sequence[tuple[str, int]], modes
    ) -> "ConditionalFactor":
        """Structured factor from one mode per target, or one mode for all:
        "uniform", "const" (symbol 0) or ("copy", source), where the source is
        a conditioner or an earlier target, reduced modulo the target's
        cardinality.  Any other source raises ``UnknownLabel``; an unknown
        mode, or a mode count other than the target count, ``InvalidFactor``."""
        return cls(targets, given, _mode_table(targets, given, modes))

    @classmethod
    def random(
        cls,
        targets: Sequence[tuple[str, int]],
        given: Sequence[tuple[str, int]],
        rng: np.random.Generator,
    ) -> "ConditionalFactor":
        """Rows drawn independently from a flat Dirichlet(1)."""
        targets, given = _factor_pairs(targets, given)
        g_shape = tuple(c for _, c in given)
        t_shape = tuple(c for _, c in targets)
        rows = rng.dirichlet(np.ones(math.prod(t_shape)), size=math.prod(g_shape))
        return cls(targets, given, rows.reshape(g_shape + t_shape))


def _mode_table(targets, given, modes) -> np.ndarray:
    """The table of ``ConditionalFactor.from_modes``, before it is normalized."""
    targets, given = _factor_pairs(targets, given)
    if isinstance(modes, str) or modes[:1] == ("copy",):
        modes = (modes,) * len(targets)
    if len(modes) != len(targets):
        raise InvalidFactor(f"{len(modes)} modes for {len(targets)} targets")
    labels = [l for l, _ in given + targets]
    shape = tuple(c for _, c in given + targets)
    if all(m == "uniform" for m in modes):
        # one division: a product of per-target shares moves the last
        # bit of some tables, such as targets of cards (3, 5, 6)
        size = math.prod(shape[len(given):])
        return np.full(shape, 1.0 / size)
    grid = np.indices(shape, sparse=True)
    table = np.ones(shape)
    for axis, mode in enumerate(modes, len(given)):
        if mode == "uniform":
            table *= 1.0 / shape[axis]
        elif mode == "const":
            table *= grid[axis] == 0
        elif isinstance(mode, tuple) and len(mode) == 2 and mode[0] == "copy":
            if mode[1] not in labels[:axis]:
                raise UnknownLabel(f"copy source {mode[1]!r} is no earlier label")
            table *= grid[axis] == grid[labels.index(mode[1])] % shape[axis]
        else:
            raise InvalidFactor(f"unknown mode {mode!r} for {labels[axis]!r}")
    return table


def joint_from_factors(factors: Sequence[ConditionalFactor]) -> JointPMF:
    """Multiply a chain of conditional factors into one joint.

    Each factor may condition only on variables introduced by earlier
    factors and may not re-introduce an existing variable.  Factors that
    hold a batch (of one size) make a batch of joints, one product each.
    """
    if not factors:
        raise EmptyList("need at least one factor")
    variables: list[tuple[str, int]] = []
    axis_of: dict[str, int] = {}
    # einsum subscripts: 0 is a batch axis, i + 1 the axis of variables[i]
    probs, held = np.ones(()), []
    for factor in factors:
        for label, card in factor.given:
            if label not in axis_of:
                raise DanglingConditioner(
                    f"factor for {factor.target_labels} conditions on "
                    f"{label!r} before it exists"
                )
            have = variables[axis_of[label]][1]
            if have != card:
                raise CardinalityMismatch(
                    f"{label!r} has cardinality {have} but factor expects {card}"
                )
        for label, _ in factor.targets:
            if label in axis_of:
                raise RepeatedTarget(f"variable {label!r} introduced twice")
        rows = [0] * (factor.table.ndim - len(factor.given) - len(factor.targets))
        if rows and 0 in held and len(factor.table) != len(probs):
            raise ShapeMismatch(f"a batch of {len(factor.table)} after one of {len(probs)}")
        subs = rows + [axis_of[l] + 1 for l, _ in factor.given]
        for label, card in factor.targets:
            axis_of[label] = len(variables)
            variables.append((label, card))
            subs.append(len(variables))
        out = sorted(set(held + subs))
        probs, held = np.einsum(probs, held, factor.table, subs, out), out
    return JointPMF(tuple(variables), probs)

