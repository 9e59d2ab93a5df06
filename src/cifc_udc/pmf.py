"""Dense joint distributions over named finite variables, and the one
entropy engine of the package.

A :class:`JointPMF` stores one probability tensor whose axes are labeled
finite variables.  Joints are assembled from chains of
:class:`ConditionalFactor` objects and queried through entropy and mutual
information, always in bits, as sums of marginal entropies from an
:class:`Information` table, the table behind every information term.

Conventions used throughout:

* ``0 * log 0 = 0`` (zero-probability cells contribute nothing),
* information terms are clamped to ``0`` after checking they are not
  below ``MI_GUARD`` (a real violation raises :class:`NumericsError`),
* ``conditional_table`` fills conditioning assignments lighter than
  ``MASS_SKIP`` with uniform rows.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import (
    CardinalityMismatch,
    DanglingConditioner,
    DuplicateLabel,
    EmptyList,
    IndexOutOfRange,
    InvalidFactor,
    MissingVariable,
    NegativeEntry,
    NumericsError,
    OverlappingGroups,
    RepeatedTarget,
    ShapeMismatch,
    SumNotOne,
    UnknownLabel,
)

# entries may dip this far below zero before we call it an error
NEG_TOL = 1e-12
# total (or per-row) mass must match 1 this closely
SUM_TOL = 1e-9
# conditional_table fills rows of conditioning assignments lighter than this
MASS_SKIP = 1e-15
# an information measure below this is a bug, not roundoff
MI_GUARD = -1e-9
# most cells a joint tensor may hold: 2**24 float64 cells are 128 MiB
JOINT_CELL_LIMIT = 2**24


def point_mass(symbols, card: int) -> np.ndarray:
    """One-hot table: ``symbols`` gains a last axis of extent ``card``
    that holds 1.0 at the given symbol and 0.0 elsewhere."""
    return (np.asarray(symbols)[..., None] == np.arange(card)).astype(np.float64)


def _number(value, integral: bool = False) -> bool:
    """Whether ``value`` may stand where a number belongs: a string, a
    boolean (numpy's too) or a list may not, whatever it holds.  An
    ``integral`` one is also whole: 2 and 2.0 are, 2.5, NaN and infinities
    are not."""
    if isinstance(value, (str, bool, np.bool_, list)):
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


def _clean_tensor(table: np.ndarray, what: str) -> np.ndarray:
    """Clip tiny negatives to zero; NaN, infinities and larger negatives
    are errors."""
    table = np.asarray(table, dtype=np.float64)
    if not np.isfinite(table).all():
        raise NegativeEntry(f"{what} has a non-finite entry")
    low = float(table.min()) if table.size else 0.0
    if low < -NEG_TOL:
        raise NegativeEntry(f"{what} has negative entry {low!r}")
    return np.clip(table, 0.0, None)


def _normalized(table, shape: tuple, given: int, what: str, error=SumNotOne) -> np.ndarray:
    """``table`` cleaned, checked to have ``shape`` and divided by the sums
    of its rows, one row per cell of the first ``given`` axes.  A row sum
    further than ``SUM_TOL`` from one raises ``error`` naming the row."""
    table = _clean_tensor(table, what)
    if table.shape != shape:
        raise ShapeMismatch(f"{what} shape {table.shape} does not match {shape}")
    sums = table.sum(axis=tuple(range(given, table.ndim)), keepdims=True)
    worst = int(np.argmax(np.abs(sums - 1.0)))
    if abs(sums.flat[worst] - 1.0) > SUM_TOL:
        row = tuple(int(i) for i in np.unravel_index(worst, sums.shape)[:given])
        at = f" row {row}" if given else ""
        raise error(f"{what}{at} sums to {float(sums.flat[worst])!r}")
    return table / sums


@dataclasses.dataclass(frozen=True, eq=False)
class JointPMF:
    """Joint distribution of named finite variables as a dense tensor.

    ``variables`` pairs each axis label with its cardinality, in axis
    order.  ``probs`` holds the probabilities, normalized exactly to one
    at construction time.
    """

    variables: tuple[tuple[str, int], ...]
    probs: np.ndarray

    def __post_init__(self):
        variables = _labeled(self.variables, "variable")
        shape = tuple(c for _, c in variables)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probs", _normalized(self.probs, shape, 0, "joint pmf"))

    # -- lookup helpers -----------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.variables)

    def card(self, label: str) -> int:
        for l, c in self.variables:
            if l == label:
                return c
        raise UnknownLabel(f"no variable {label!r} in joint over {self.labels}")

    def axes(self, labels: Iterable[str]) -> tuple[int, ...]:
        """Axis indices for the given labels, which must be distinct."""
        order = {l: i for i, (l, _) in enumerate(self.variables)}
        out = []
        seen = set()
        for label in labels:
            if label not in order:
                raise UnknownLabel(f"no variable {label!r} in joint over {self.labels}")
            if label in seen:
                raise OverlappingGroups(f"label {label!r} listed twice")
            seen.add(label)
            out.append(order[label])
        return tuple(out)


def marginalize(joint: JointPMF, keep: Sequence[str]) -> JointPMF:
    """Marginal of ``joint`` over ``keep``, axes in the order given."""
    if not keep:
        raise EmptyList("marginalize needs at least one variable to keep")
    keep_axes = joint.axes(keep)
    drop = tuple(i for i in range(len(joint.variables)) if i not in keep_axes)
    table = joint.probs.sum(axis=drop) if drop else joint.probs
    # sum() puts surviving axes in original order; permute into requested order
    surviving = [i for i in range(len(joint.variables)) if i not in drop]
    perm = [surviving.index(a) for a in keep_axes]
    table = np.transpose(table, perm)
    variables = tuple(joint.variables[a] for a in keep_axes)
    return JointPMF(variables, table)


# ---------------------------------------------------------------------------
# the entropy engine; supports a leading batch axis

def marginal_entropies(j: np.ndarray, groups, ndim: int = 6) -> np.ndarray:
    """Entropy in bits of several marginals of a joint tensor.

    ``groups`` lists the axis sets to keep; a tensor with one extra leading
    axis is treated as a batch. Returns shape (batch?, len(groups)).
    """
    batched = j.ndim == ndim + 1
    out = []
    for keep in groups:
        # a dropped axis of extent 1 needs no sum
        axes = tuple(
            a + batched for a in range(ndim)
            if a not in keep and j.shape[a + batched] > 1
        )
        m = j.sum(axis=axes) if axes else j
        flat = m.reshape(m.shape[0], -1) if batched else m.reshape(-1)
        # one temporary: p log2 p in place, with log2 1 = 0 where p = 0
        t = np.where(flat > 0, flat, 1.0)
        np.log2(t, out=t)
        t *= flat
        out.append(-np.sum(t, axis=-1))
    return np.array(out).T  # as np.stack(out, axis=-1), in a fifth of the time


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
    and any other axis count raises ``ShapeMismatch``.

    The marginals summed so far are held, keyed by axis set, with the
    tensor itself as the root.  New groups are summed largest first, each
    from the held marginal of fewest cells whose axes contain it (the
    first held on ties), and each marginal entropy is computed once, by
    ``marginal_entropies``.  ``of_laws`` builds a table with two roots in
    place of the tensor."""

    def __init__(self, j: np.ndarray, labels: str):
        self.names = tuple(labels.split())
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
                (h,) = marginal_entropies(m, [keep], len(self.names)).T
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
            m = self._marginals[source].sum(axis=axes, keepdims=True)
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


# ---------------------------------------------------------------------------
# information measures of a JointPMF: front ends of Information

def _measure(joint: JointPMF, *groups: Sequence[str]) -> tuple[Information, list[str]]:
    """An ``Information`` table over ``joint`` and each group as its axis
    positions ("0 2"), as a label may hold a space.  ``joint.axes`` raises
    ``UnknownLabel``, or ``OverlappingGroups`` for a label listed twice."""
    axes = iter(joint.axes([label for g in groups for label in g]))
    info = Information(joint.probs, " ".join(map(str, range(joint.probs.ndim))))
    return info, [" ".join(str(next(axes)) for _ in g) for g in groups]


def conditional_entropy(
    joint: JointPMF,
    targets: Sequence[str],
    given: Sequence[str] = (),
) -> float:
    """H(targets | given) in bits."""
    if not targets:
        raise EmptyList("conditional_entropy needs a nonempty target group")
    info, (t, g) = _measure(joint, targets, given)
    return float(clip_information(info.cond(t, g)))


def entropy(joint: JointPMF, targets: Sequence[str]) -> float:
    """H(targets) in bits."""
    return conditional_entropy(joint, targets, ())


def conditional_mutual_information(
    joint: JointPMF,
    group_a: Sequence[str],
    group_b: Sequence[str],
    given: Sequence[str] = (),
) -> float:
    """I(group_a ; group_b | given) in bits.

    The three groups must be pairwise disjoint; ``given`` may be empty.
    """
    if not group_a or not group_b:
        raise EmptyList("mutual information needs two nonempty groups")
    info, (a, b, c) = _measure(joint, group_a, group_b, given)
    return float(clip_information(info.mi(a, b, c)))


def mutual_information(
    joint: JointPMF, group_a: Sequence[str], group_b: Sequence[str]
) -> float:
    """I(group_a ; group_b) in bits."""
    return conditional_mutual_information(joint, group_a, group_b, ())


@dataclasses.dataclass(frozen=True, eq=False)
class ConditionalFactor:
    """Conditional distribution p(targets | given) as a dense table.

    ``table`` has one axis per conditioning variable followed by one axis
    per target variable; every conditioning row sums to one.
    """

    targets: tuple[tuple[str, int], ...]
    given: tuple[tuple[str, int], ...]
    table: np.ndarray

    def __post_init__(self):
        if not self.targets:
            raise EmptyList("factor needs at least one target variable")
        targets, given = _factor_pairs(self.targets, self.given)
        shape = tuple(c for _, c in given + targets)
        table = _normalized(self.table, shape, len(given), "factor table")
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
            return cls(targets, given, np.full(shape, 1.0 / size))
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
        return cls(targets, given, table)

    @classmethod
    def from_function(
        cls,
        targets: Sequence[tuple[str, int]],
        given: Sequence[tuple[str, int]],
        fn,
    ) -> "ConditionalFactor":
        """Deterministic factor: ``fn(*given indices) -> target indices``."""
        targets, given = _factor_pairs(targets, given)
        g_shape = tuple(c for _, c in given)
        t_shape = tuple(c for _, c in targets)
        table = np.zeros(g_shape + t_shape)
        for g_idx in np.ndindex(*g_shape) if g_shape else [()]:
            out = fn(*g_idx)
            if len(targets) == 1 and not isinstance(out, (tuple, list)):
                out = (out,)
            out = tuple(int(v) for v in out)
            if len(out) != len(targets):
                raise ShapeMismatch("function returned wrong number of symbols")
            for v, (l, c) in zip(out, targets):
                if not 0 <= v < c:
                    raise IndexOutOfRange(
                        f"function value {v} out of range for {l!r}"
                    )
            table[g_idx + out] = 1.0
        return cls(targets, given, table)

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


def joint_from_factors(factors: Sequence[ConditionalFactor]) -> JointPMF:
    """Multiply a chain of conditional factors into one joint.

    Each factor may condition only on variables introduced by earlier
    factors and may not re-introduce an existing variable.
    """
    if not factors:
        raise EmptyList("need at least one factor")
    variables: list[tuple[str, int]] = []
    axis_of: dict[str, int] = {}
    probs = np.ones(())
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
        joint_subs = list(range(len(variables)))
        fac_subs = [axis_of[l] for l, _ in factor.given]
        new_subs = list(
            range(len(variables), len(variables) + len(factor.targets))
        )
        out_subs = joint_subs + new_subs
        probs = np.einsum(probs, joint_subs, factor.table, fac_subs + new_subs, out_subs)
        for label, card in factor.targets:
            axis_of[label] = len(variables)
            variables.append((label, card))
    return JointPMF(tuple(variables), probs)


def conditional_table(
    joint: JointPMF,
    targets: Sequence[str],
    given: Sequence[str],
) -> ConditionalFactor:
    """Extract p(targets | given) from a joint.

    Conditioning assignments with mass below ``MASS_SKIP`` get a uniform
    row so the result is always a valid factor.
    """
    if not targets:
        raise EmptyList("conditional_table needs a nonempty target group")
    p_gt = marginalize(joint, [*given, *targets]).probs
    n_g = len(given)
    p_g = p_gt.sum(axis=tuple(range(n_g, p_gt.ndim)), keepdims=True)
    t_size = math.prod(p_gt.shape[n_g:])
    safe = np.where(p_g >= MASS_SKIP, p_g, 1.0)
    table = np.where(p_g >= MASS_SKIP, p_gt / safe, 1.0 / t_size)
    target_pairs = tuple((l, joint.card(l)) for l in targets)
    given_pairs = tuple((l, joint.card(l)) for l in given)
    return ConditionalFactor(target_pairs, given_pairs, table)
