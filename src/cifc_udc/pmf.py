"""Dense joint distributions over named finite variables.

A :class:`JointPMF` stores one probability tensor whose axes are labeled
finite variables.  Joints are assembled from chains of
:class:`ConditionalFactor` objects and queried through entropy and mutual
information, always in bits.

Conventions used throughout:

* ``0 * log 0 = 0`` (zero-probability cells contribute nothing),
* conditioning assignments with total mass below ``MASS_SKIP`` are skipped,
* information measures are clamped to ``0`` after checking they are not
  below ``-MI_GUARD`` (a real violation raises :class:`NumericsError`).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import (
    CardinalityMismatch,
    DanglingConditioner,
    DuplicateLabel,
    EmptyList,
    IndexOutOfRange,
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
# conditioning assignments lighter than this are skipped
MASS_SKIP = 1e-15
# an information measure below this is a bug, not roundoff
MI_GUARD = -1e-9
# most cells a joint tensor may hold: 2**24 float64 cells are 128 MiB
JOINT_CELL_LIMIT = 2**24


def point_mass(symbols, card: int) -> np.ndarray:
    """One-hot table: ``symbols`` gains a last axis of extent ``card``
    that holds 1.0 at the given symbol and 0.0 elsewhere."""
    return (np.asarray(symbols)[..., None] == np.arange(card)).astype(np.float64)


def _check_labels(pairs: Sequence[tuple[str, int]], kind: str) -> None:
    seen = set()
    for label, card in pairs:
        if not isinstance(label, str) or not label:
            raise DuplicateLabel(f"{kind} label must be a nonempty string, got {label!r}")
        if label in seen:
            raise DuplicateLabel(f"duplicate {kind} label {label!r}")
        seen.add(label)
        if int(card) != card or card < 1:
            raise ShapeMismatch(f"{kind} {label!r} has invalid cardinality {card!r}")


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
        variables = tuple((str(l), int(c)) for l, c in self.variables)
        _check_labels(variables, "variable")
        probs = _clean_tensor(self.probs, "joint pmf")
        shape = tuple(c for _, c in variables)
        if probs.shape != shape:
            raise ShapeMismatch(
                f"pmf shape {probs.shape} does not match cardinalities {shape}"
            )
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise SumNotOne(f"joint pmf sums to {total!r}")
        probs = probs / total
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probs", probs)

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


def _grouped_marginal(
    joint: JointPMF,
    groups: Sequence[Sequence[str]],
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Marginal tensor over the union of groups plus each group's axes."""
    flat: list[str] = []
    for g in groups:
        flat.extend(g)
    # disjointness across groups is part of the information-measure contract
    if len(set(flat)) != len(flat):
        raise OverlappingGroups(f"variable groups overlap: {groups}")
    if not flat:
        raise EmptyList("no variables given")
    marg = marginalize(joint, flat)
    spans = []
    start = 0
    for g in groups:
        spans.append(tuple(range(start, start + len(g))))
        start += len(g)
    return marg.probs, spans


def conditional_entropy(
    joint: JointPMF,
    targets: Sequence[str],
    given: Sequence[str] = (),
) -> float:
    """H(targets | given) in bits."""
    if not targets:
        raise EmptyList("conditional_entropy needs a nonempty target group")
    p_tg, (t_axes, _) = _grouped_marginal(joint, [list(targets), list(given)])
    p_g = p_tg.sum(axis=t_axes, keepdims=True)
    mask = (p_tg > 0.0) & (np.broadcast_to(p_g, p_tg.shape) >= MASS_SKIP)
    if not mask.any():
        return 0.0
    ratio = p_tg[mask] / np.broadcast_to(p_g, p_tg.shape)[mask]
    value = -float(np.sum(p_tg[mask] * np.log2(ratio)))
    if value < MI_GUARD:
        raise NumericsError(f"conditional entropy came out {value!r}")
    return max(value, 0.0)


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
    p_abc, (a_axes, b_axes, _) = _grouped_marginal(
        joint, [list(group_a), list(group_b), list(given)]
    )
    p_ac = p_abc.sum(axis=b_axes, keepdims=True)
    p_bc = p_abc.sum(axis=a_axes, keepdims=True)
    p_c = p_ac.sum(axis=a_axes, keepdims=True)
    full = p_abc.shape
    mask = (p_abc > 0.0) & (np.broadcast_to(p_c, full) >= MASS_SKIP)
    if not mask.any():
        return 0.0
    num = p_abc[mask] * np.broadcast_to(p_c, full)[mask]
    den = np.broadcast_to(p_ac, full)[mask] * np.broadcast_to(p_bc, full)[mask]
    value = float(np.sum(p_abc[mask] * np.log2(num / den)))
    if value < MI_GUARD:
        raise NumericsError(f"mutual information came out {value!r}")
    return max(value, 0.0)


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
        targets = tuple((str(l), int(c)) for l, c in self.targets)
        given = tuple((str(l), int(c)) for l, c in self.given)
        if not targets:
            raise EmptyList("factor needs at least one target variable")
        _check_labels(targets + given, "factor")
        table = _clean_tensor(self.table, "factor table")
        shape = tuple(c for _, c in given) + tuple(c for _, c in targets)
        if table.shape != shape:
            raise ShapeMismatch(
                f"factor table shape {table.shape} does not match {shape}"
            )
        t_axes = tuple(range(len(given), len(given) + len(targets)))
        sums = table.sum(axis=t_axes)
        if sums.size and np.max(np.abs(sums - 1.0)) > SUM_TOL:
            bad = float(sums.flat[int(np.argmax(np.abs(sums - 1.0)))])
            raise SumNotOne(f"factor row sums to {bad!r}")
        table = table / sums.reshape(sums.shape + (1,) * len(targets))
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
    def uniform(
        cls,
        targets: Sequence[tuple[str, int]],
        given: Sequence[tuple[str, int]] = (),
    ) -> "ConditionalFactor":
        targets = tuple(targets)
        given = tuple(given)
        shape = tuple(c for _, c in given) + tuple(c for _, c in targets)
        size = int(np.prod([c for _, c in targets], dtype=np.int64)) if targets else 1
        return cls(targets, given, np.full(shape, 1.0 / size))

    @classmethod
    def constant(
        cls,
        targets: Sequence[tuple[str, int]],
        given: Sequence[tuple[str, int]] = (),
        values: Sequence[int] | None = None,
    ) -> "ConditionalFactor":
        """Deterministic factor fixing every target to one symbol."""
        targets = tuple(targets)
        given = tuple(given)
        if values is None:
            values = tuple(0 for _ in targets)
        values = tuple(int(v) for v in values)
        if len(values) != len(targets):
            raise ShapeMismatch("one fixed value per target variable required")
        for v, (l, c) in zip(values, targets):
            if not 0 <= v < c:
                raise ShapeMismatch(f"value {v} out of range for {l!r} (card {c})")
        point = np.zeros(tuple(c for _, c in targets))
        point[values] = 1.0
        shape = tuple(c for _, c in given) + point.shape
        return cls(targets, given, np.broadcast_to(point, shape).copy())

    @classmethod
    def copy(
        cls,
        target_label: str,
        source_label: str,
        given: Sequence[tuple[str, int]],
    ) -> "ConditionalFactor":
        """Deterministic factor setting the target equal to one conditioner."""
        given = tuple(given)
        cards = dict(given)
        if source_label not in cards:
            raise UnknownLabel(f"copy source {source_label!r} not among given")
        card = cards[source_label]
        src_axis = [l for l, _ in given].index(source_label)
        shape = tuple(c for _, c in given)
        source = np.indices(shape, sparse=True)[src_axis]
        table = np.broadcast_to(point_mass(source, card), shape + (card,))
        return cls(((target_label, card),), given, table)

    @classmethod
    def from_function(
        cls,
        targets: Sequence[tuple[str, int]],
        given: Sequence[tuple[str, int]],
        fn,
    ) -> "ConditionalFactor":
        """Deterministic factor: ``fn(*given indices) -> target indices``."""
        targets = tuple(targets)
        given = tuple(given)
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
        alpha: float = 1.0,
    ) -> "ConditionalFactor":
        """Rows drawn independently from a symmetric Dirichlet(alpha)."""
        targets = tuple(targets)
        given = tuple(given)
        g_size = int(np.prod([c for _, c in given], dtype=np.int64)) if given else 1
        t_size = int(np.prod([c for _, c in targets], dtype=np.int64))
        rows = rng.dirichlet(np.full(t_size, float(alpha)), size=g_size)
        shape = tuple(c for _, c in given) + tuple(c for _, c in targets)
        return cls(targets, given, rows.reshape(shape))


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
    p_tg, (t_axes, g_axes) = _grouped_marginal(joint, [list(targets), list(given)])
    # reorder to given-axes-first to match the factor layout
    perm = tuple(g_axes) + tuple(t_axes)
    p_gt = np.transpose(p_tg, perm)
    n_g = len(g_axes)
    t_axes_new = tuple(range(n_g, p_gt.ndim))
    p_g = p_gt.sum(axis=t_axes_new, keepdims=True)
    t_size = int(np.prod([p_gt.shape[a] for a in t_axes_new], dtype=np.int64))
    safe = np.where(p_g >= MASS_SKIP, p_g, 1.0)
    table = np.where(p_g >= MASS_SKIP, p_gt / safe, 1.0 / t_size)
    target_pairs = tuple((l, joint.card(l)) for l in targets)
    given_pairs = tuple((l, joint.card(l)) for l in given)
    return ConditionalFactor(target_pairs, given_pairs, table)
