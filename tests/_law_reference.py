"""The deterministic-table builders as they stood before ``pmf.point_mass``:
copies of the old ``_mode_factor`` (its all-uniform and all-const tables
written out, not built by the library), ``input_corners``, ``wire_v12``,
``with_constant_v12``, ``v2_equals_y2_lift``, ``ConditionalFactor.copy``,
``ChannelSpec.from_outputs`` and ``classify`` with its per-cell degraded
loop.  Tests compare the library against these byte for byte
(``same_bytes``) and flag for flag.

Also the lift of a batch of input laws to full joint tensors, which the
library never builds (``Information.of_laws`` scores laws without it): the
tests wrap it in ``Information(j, labels)`` as the reference for every
evaluator.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from cifc_udc.capacity import InputJoint, V12Joint, V12V2Joint, y2_output_map
from cifc_udc.channel import ChannelSpec, ClassReport
from cifc_udc.errors import UnknownLabel
from cifc_udc.inner import _signature_pairs
from cifc_udc.outer import _distinct, check_input_cards
from cifc_udc.pmf import ConditionalFactor


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal dtype, shape, memory layout and bytes.  Stricter than
    ``np.array_equal``, which takes -0.0 for 0.0 and ignores the layout that
    a later normalizing sum follows."""
    return (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides) and (
        a.tobytes() == b.tobytes()
    )


def lift(rows: np.ndarray, cards, channel: ChannelSpec) -> np.ndarray:
    """Lift a batch of input laws through the channel.

    ``rows`` holds one law over ``cards`` per leading index, flat or
    shaped.  The result has axes (batch, *cards, y1, y2); each cell is the
    single product p(x1, [aux...], x2, x3) * p(y1, y2 | x1, x2, x3).
    """
    cards = tuple(cards)
    check_input_cards(cards, channel)
    n = len(cards)
    return np.einsum(
        np.reshape(rows, (-1,) + cards), [n + 2, *range(n)],
        channel.transition, [0, n - 2, n - 1, n, n + 1],
        [n + 2, *range(n + 2)],
    )


class ReferenceFactor(ConditionalFactor):
    """``ConditionalFactor`` with the old ``copy`` constructor."""

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
        eye = np.eye(card)
        shape = tuple(c for _, c in given) + (card,)
        table = np.zeros(shape)
        # place the identity along (source axis, target axis)
        idx = np.arange(card)
        moved = np.moveaxis(table, (src_axis, len(given)), (0, 1))
        moved[idx, idx, ...] = 1.0
        return cls(((target_label, card),), given, table)


class ReferenceChannel(ChannelSpec):
    """``ChannelSpec`` with the old ``from_outputs`` loop."""

    @classmethod
    def from_outputs(cls, cards: Sequence[int], fn) -> "ChannelSpec":
        """Deterministic channel: ``fn(x1,x2,x3) -> (y1,y2)``."""
        cards = tuple(int(c) for c in cards)
        t = np.zeros(cards)
        for x1 in range(cards[0]):
            for x2 in range(cards[1]):
                for x3 in range(cards[2]):
                    y1, y2 = fn(x1, x2, x3)
                    t[x1, x2, x3, int(y1), int(y2)] = 1.0
        return cls(cards, t)


def _mode_factor(index: int, cards: dict[str, int], modes) -> ConditionalFactor:
    """Build one factor from per-target modes.

    A mode is "const", "uniform", or ("copy", source); copies reduce the
    source symbol modulo the target cardinality.  Multi-target factors take
    one mode per target; a copy source may be an earlier target in the same
    factor.
    """
    targets, given = _signature_pairs(index, cards)
    if isinstance(modes, (str, tuple)) and (
        modes == "uniform" or modes == "const" or (modes and modes[0] == "copy")
    ):
        modes = (modes,) * len(targets)
    g_shape = tuple(c for _, c in given)
    t_shape = tuple(c for _, c in targets)
    if all(m == "uniform" for m in modes):
        size = int(np.prod(t_shape, dtype=np.int64))
        return ConditionalFactor(targets, given, np.full(g_shape + t_shape, 1.0 / size))
    if all(m == "const" for m in modes):
        point = np.zeros(t_shape)
        point[(0,) * len(t_shape)] = 1.0
        return ConditionalFactor(targets, given, np.broadcast_to(point, g_shape + t_shape))
    labels = [l for l, _ in given] + [l for l, _ in targets]
    table = np.zeros(g_shape + t_shape)
    for g_idx in np.ndindex(*g_shape) if g_shape else [()]:
        block = np.ones(t_shape)
        for axis, ((label, card), mode) in enumerate(zip(targets, modes)):
            shape = [1] * len(t_shape)
            shape[axis] = card
            if mode == "const":
                row = np.zeros(card)
                row[0] = 1.0
                block = block * row.reshape(shape)
            elif mode == "uniform":
                block = block * np.full(card, 1.0 / card).reshape(shape)
            else:
                _, source = mode
                pos = labels.index(source)
                if pos < len(g_idx):
                    row = np.zeros(card)
                    row[g_idx[pos] % card] = 1.0
                    block = block * row.reshape(shape)
                else:
                    # copy of an earlier target inside this factor
                    src_axis = pos - len(g_idx)
                    src_card = t_shape[src_axis]
                    ind = np.zeros((src_card, card))
                    ind[np.arange(src_card), np.arange(src_card) % card] = 1.0
                    sh = [1] * len(t_shape)
                    sh[src_axis] = src_card
                    sh[axis] = card
                    block = block * ind.reshape(sh)
        table[g_idx] = block
    return ConditionalFactor(targets, given, table)


def input_corners(cards: tuple[int, int, int]) -> list[np.ndarray]:
    """Distinct product laws over (x1, x2, x3) whose three factors are
    each uniform or a point mass at symbol 0; the all-uniform law first."""
    margins = []
    for card in cards:
        point = np.zeros(card)
        point[0] = 1.0
        margins.append((np.full(card, 1.0 / card), point))
    return _distinct(
        np.einsum(m1, [0], m2, [1], m3, [2], [0, 1, 2])
        for m1, m2, m3 in itertools.product(*margins)
    )


def wire_v12(base: np.ndarray, card_v12: int) -> list[np.ndarray]:
    """Embed p(x1, x2, x3) as p(x1, v12, x2, x3) four ways: v12 = 0, x1,
    x2 and x1*|X2| + x2, each taken mod |V12|."""
    cx1, cx2, cx3 = base.shape
    rules = (
        lambda x1, x2: 0,
        lambda x1, x2: x1,
        lambda x1, x2: x2,
        lambda x1, x2: x1 * cx2 + x2,
    )
    out = []
    for rule in rules:
        d = np.zeros((cx1, card_v12, cx2, cx3))
        for x1 in range(cx1):
            for x2 in range(cx2):
                d[x1, rule(x1, x2) % card_v12, x2, :] = base[x1, x2, :]
        out.append(d)
    return out


def with_constant_v12(d: InputJoint, card_v12: int) -> V12Joint:
    """Lift p(x1,x2,x3) to p(x1,v12,x2,x3) with a constant auxiliary."""
    cx1, cx2, cx3 = d.cards
    pmf = np.zeros((cx1, card_v12, cx2, cx3))
    pmf[:, 0, :, :] = d.pmf
    return V12Joint((cx1, card_v12, cx2, cx3), pmf)


def v2_equals_y2_lift(d: V12Joint, channel: ChannelSpec) -> V12V2Joint:
    """Embed p(x1,v12,x2,x3) as p(x1,v12,v2,x2,x3) with v2 = y2(x1,x2,x3)."""
    fmap = y2_output_map(channel)
    cx1, cv12, cx2, cx3 = d.cards
    cy2 = channel.card("y2")
    pmf = np.zeros((cx1, cv12, cy2, cx2, cx3))
    for x1 in range(cx1):
        for x2 in range(cx2):
            for x3 in range(cx3):
                pmf[x1, :, fmap[x1, x2, x3], x2, x3] = d.pmf[x1, :, x2, x3]
    return V12V2Joint((cx1, cv12, cy2, cx2, cx3), pmf)


def classify(channel: ChannelSpec, tol: float = 1e-9) -> ClassReport:
    """Structural flags; the high-interference flag is filled elsewhere.

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
    # checked only where the conditioning event is realizable
    is_degraded = True
    n1, n2, n3, m1, m2 = channel.cards
    for y2 in range(m2):
        for x3 in range(n3):
            reference = None
            for x1 in range(n1):
                for x2 in range(n2):
                    mass = p_y2[x1, x2, x3, y2]
                    if mass <= tol:
                        continue
                    row = t[x1, x2, x3, :, y2] / mass
                    if reference is None:
                        reference = row
                    elif float(np.max(np.abs(row - reference))) > tol:
                        is_degraded = False
            if not is_degraded:
                break
        if not is_degraded:
            break

    rounded = np.minimum(np.abs(p_y2), np.abs(p_y2 - 1.0))
    is_semi_deterministic = float(rounded.max()) <= tol

    return ClassReport(
        is_z=is_z,
        is_degraded=is_degraded,
        is_semi_deterministic=is_semi_deterministic,
    )
