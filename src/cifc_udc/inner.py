"""Achievable-rate inner bound via auxiliary-variable factorizations.

The coding scheme splits each message into public/private/binned parts and
routes them through eight auxiliary variables.  For a fixed factorization the
achievable (R1, R2) pairs form a polytope in rate-split space; projecting it
to the plane and unioning over factorizations gives the inner bound estimate.
"""

import functools
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .channel import AXES, ChannelSpec
from .errors import (
    CardinalityMismatch,
    InadmissibleConstants,
    InvalidFactor,
    MissingVariable,
)
from .pmf import (
    ConditionalFactor,
    Information,
    JointPMF,
    _mode_table,
    _settings,
    check_cells,
    clip_information,
    joint_from_factors,
)
from .polytope import (
    ParametricPlane,
    Region2D,
    polygon_points,
    project_parametric,
    region_from_vertices,
)

ADMISSIBLE_TOL = 1e-9

# most joint cells one table of ``inner_region`` holds (one joint at least)
_INNER_CELLS = 1 << 16

AUX_LABELS = ("u1p", "u1", "v1", "u2p", "u2", "v12", "v2", "yh2")

JOINT_LABELS = (
    "u1p", "u1", "v1", "u2p", "u2", "v12", "v2",
    "x1", "x2", "x3", "y1", "y2", "yh2",
)

# canonical factor chain: each entry is (targets, given)
FACTOR_SIGNATURES = (
    (("u1p",), ()),
    (("u1",), ("u1p",)),
    (("v1",), ("u1p", "u1")),
    (("u2p",), ("u1p",)),
    (("u2", "v12", "v2"), ("u1p", "u1", "v1", "u2p")),
    (("x1",), ("u1p", "u1", "v1")),
    (("x2",), ("u1p", "u1", "v1", "u2p", "u2", "v12", "v2")),
    (("x3",), ("u1p", "u2p")),
    (("yh2",), ("u1p", "u1", "u2p", "u2", "x3", "y2")),
)


@dataclass(frozen=True)
class InnerFactorization:
    """Nine conditional factors in the canonical chain order.

    Auxiliary cardinalities are implied by the factor tables; the factors
    must use exactly the canonical signatures, and batched ones make a batch.
    """

    factors: tuple[ConditionalFactor, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if len(factors) != len(FACTOR_SIGNATURES):
            raise InvalidFactor(
                f"expected {len(FACTOR_SIGNATURES)} factors, got {len(factors)}"
            )
        for factor, (targets, given) in zip(factors, FACTOR_SIGNATURES):
            if factor.target_labels != targets or factor.given_labels != given:
                raise InvalidFactor(
                    f"factor for {factor.target_labels} must be "
                    f"p({','.join(targets)}|{','.join(given)})"
                )
        object.__setattr__(self, "factors", factors)
        cards = self.cards
        for factor in factors:
            for label, card in factor.given:
                if cards[label] != card:
                    raise CardinalityMismatch(
                        f"{label!r} has cardinality {cards[label]} but a factor "
                        f"conditions on it with cardinality {card}"
                    )

    @property
    def cards(self) -> dict[str, int]:
        """Cardinalities of every variable the factor chain mentions."""
        targets = itertools.chain.from_iterable(f.targets for f in self.factors)
        return {**dict(targets), "y2": dict(self.factors[8].given)["y2"]}


def assemble_joint(factorization: InnerFactorization, channel: ChannelSpec) -> JointPMF:
    """Multiply the factor chain and the channel into the 13-variable joint
    (one per row of a batched factorization).  The channel factor
    p(y1,y2|x1,x2,x3) enters right before the output estimate factor,
    which conditions on y2.
    """
    cards = factorization.cards
    for label in ("x1", "x2", "x3", "y2"):
        if cards[label] != channel.card(label):
            raise CardinalityMismatch(
                f"{label!r}: factorization uses cardinality {cards[label]}, "
                f"channel uses {channel.card(label)}"
            )
    chain = list(factorization.factors[:8])
    chain.append(channel.as_factor())
    chain.append(factorization.factors[8])
    return joint_from_factors(chain)


@dataclass(frozen=True)
class InnerConstants:
    """Mutual-information constants of the rate-split system, in bits.

    A  = I(V1;U2|U1p,U1,U2p)            precoding cost against the cognitive layer
    B  = I(Y1,V1,V12;YH2|U1p,U1,U2p,U2,X3)   relayed-estimate payoff
    C  = I(Y2;YH2|U1p,U1,U2p,U2,X3)          relayed-estimate quantization cost
    D  = I(Y1;U1p,U1,V1,U2p,U2,V12,X3)
    E  = I(Y1;V1,U2p,U2,V12,X3|U1p,U1)
    F  = I(Y1;V1,V12,X3|U1p,U1,U2p,U2)
    G  = I(Y1,YH2;V1,V12|U1p,U1,U2p,U2,X3)
    H  = I(Y1;U2p,U2,V12,X3|U1p,U1,V1)
    I  = I(Y1;V12,X3|U1p,U1,V1,U2p,U2)
    J  = I(Y1,YH2;V12|U1p,U1,V1,U2p,U2,X3)
    K  = I(Y2;U1,U2,V2|U1p,U2p,X3)
    L  = I(Y2;U2,V2|U1p,U1,U2p,X3)
    M  = I(Y2;V2|U1p,U1,U2p,U2,X3)
    N1 = I(V1;V2|U1p,U1,U2p,U2)
    N2 = I(V1,V12;V2|U1p,U1,U2p,U2)
    P  = I(Y1;X3|U1p,U1,V1,U2p,U2,V12)
    """

    A: float
    B: float
    C: float
    D: float
    E: float
    F: float
    G: float
    H: float
    I: float
    J: float
    K: float
    L: float
    M: float
    N1: float
    N2: float
    P: float


CONSTANT_NAMES = tuple(f.name for f in fields(InnerConstants))


def _constant_rows(info: Information) -> np.ndarray:
    """The sixteen constants of a table named ``JOINT_LABELS``, one joint or
    a batch, in bits and ``CONSTANT_NAMES`` order on a last axis."""
    return clip_information(np.stack([
        info.mi("v1", "u2", "u1p u1 u2p"),
        info.mi("y1 v1 v12", "yh2", "u1p u1 u2p u2 x3"),
        info.mi("y2", "yh2", "u1p u1 u2p u2 x3"),
        info.mi("y1", "u1p u1 v1 u2p u2 v12 x3"),
        info.mi("y1", "v1 u2p u2 v12 x3", "u1p u1"),
        info.mi("y1", "v1 v12 x3", "u1p u1 u2p u2"),
        info.mi("y1 yh2", "v1 v12", "u1p u1 u2p u2 x3"),
        info.mi("y1", "u2p u2 v12 x3", "u1p u1 v1"),
        info.mi("y1", "v12 x3", "u1p u1 v1 u2p u2"),
        info.mi("y1 yh2", "v12", "u1p u1 v1 u2p u2 x3"),
        info.mi("y2", "u1 u2 v2", "u1p u2p x3"),
        info.mi("y2", "u2 v2", "u1p u1 u2p x3"),
        info.mi("y2", "v2", "u1p u1 u2p u2 x3"),
        info.mi("v1", "v2", "u1p u1 u2p u2"),
        info.mi("v1 v12", "v2", "u1p u1 u2p u2"),
        info.mi("y1", "x3", "u1p u1 v1 u2p u2 v12"),
    ], axis=-1))


def inner_constants(joint: JointPMF) -> InnerConstants:
    """Evaluate the sixteen constants on an assembled joint."""
    missing = [l for l in JOINT_LABELS if l not in joint.labels]
    if missing:
        raise MissingVariable(f"joint lacks variables {missing}")
    info = Information(joint.probs, " ".join(joint.labels))
    return InnerConstants(*map(float, _constant_rows(info)))


def admissible(c: InnerConstants) -> bool:
    """Whether the relayed-estimate cost C is covered by P + B."""
    return c.C <= c.P + c.B + ADMISSIBLE_TOL


# ---------------------------------------------------------------------------
# rate-split constraint system

RATE_VARIABLES = (
    "R1", "R2",
    "R11", "R1p", "R1B", "R22", "R2p",
    "R1B_bin", "R2p_bin", "R22_bin",
)

# decoder-1 rows (e*) and decoder-2 rows (f*); head rows may be dropped when
# the sub-rates they protect are pinned to zero
_E1 = ("R1p", "R11", "R2p", "R2p_bin", "R1B", "R1B_bin")
_E2 = ("R11", "R2p", "R2p_bin", "R1B", "R1B_bin")
_E3 = ("R2p", "R2p_bin", "R1B", "R1B_bin")
_E4 = ("R11", "R1B", "R1B_bin")
_E5 = ("R1B", "R1B_bin")
_F1 = ("R1p", "R2p", "R2p_bin", "R22", "R22_bin")
_F2 = ("R2p", "R2p_bin", "R22", "R22_bin")
_F3 = ("R22", "R22_bin")

# (pinned-to-zero variables, dropped row names); decoder-1 cases nest, the
# decoder-2 case is independent, giving 4 x 2 sub-systems
_DEC1_CASES = (
    ((), ()),
    (("R1B", "R1B_bin"), ("e3",)),
    (("R11", "R1B", "R1B_bin"), ("e2", "e3")),
    (("R1p", "R11", "R1B", "R1B_bin"), ("e1", "e2", "e3")),
)
_DEC2_CASES = (
    ((), ()),
    (("R2p", "R2p_bin", "R22", "R22_bin"), ("f1",)),
)
DROP_CASES = tuple(
    (p1 + p2, d1 + d2)
    for p1, d1 in _DEC1_CASES
    for p2, d2 in _DEC2_CASES
)


def _named_rows(c: InnerConstants) -> dict[str, tuple[dict[str, float], float]]:
    row = lambda vars_: {v: 1.0 for v in vars_}
    return {
        "e1": (row(_E1), c.A + c.B + c.D - c.C),
        "e2": (row(_E2), c.A + c.B + c.E - c.C),
        "e3": (row(_E3), c.A + c.B + c.H - c.C),
        "e4a": (row(_E4), c.A + c.B + c.F - c.C),
        "e4b": (row(_E4), c.A + c.G),
        "e5a": (row(_E5), c.J),
        "e5b": (row(_E5), c.B + c.I - c.C),
        "f1": (row(_F1), c.K),
        "f2": (row(_F2), c.L),
        "f3": (row(_F3), c.M),
    }


def _case_rows(c: InnerConstants, pinned: tuple[str, ...], dropped: tuple[str, ...]):
    """(inequalities, equalities) of one drop case, without the pinned
    sub-rates."""
    named = _named_rows(c)
    inequalities = [named[k] for k in named if k not in dropped]
    # binning floors
    inequalities.append(({"R2p_bin": -1.0}, -c.A))
    inequalities.append(({"R22_bin": -1.0}, -c.N1))
    inequalities.append(({"R1B_bin": -1.0, "R22_bin": -1.0}, -c.N2))
    equalities = [
        ({"R1": 1.0, "R11": -1.0, "R1p": -1.0, "R1B": -1.0}, 0.0),
        ({"R2": 1.0, "R22": -1.0, "R2p": -1.0}, 0.0),
    ]
    unpin = lambda rows: [
        ({v: a for v, a in row.items() if v not in pinned}, bound)
        for row, bound in rows
    ]
    return unpin(inequalities), unpin(equalities)


@functools.cache
def _compiled_case(pinned: tuple[str, ...], dropped: tuple[str, ...]) -> ParametricPlane:
    """One drop case projected to (R1, R2) once per process, its bounds
    carried as multipliers over the constants (A..P, 1): ``_case_rows``
    at constants that are the unit rows of those multipliers."""
    free = tuple(v for v in RATE_VARIABLES if v not in pinned)
    size = len(CONSTANT_NAMES)
    rows = _case_rows(InnerConstants(*np.eye(size, size + 1)), pinned, dropped)
    return project_parametric(free, *rows, size, "R1", "R2", nonnegative=free)


def region_for_distribution(c: InnerConstants) -> Region2D:
    """(R1, R2) region for one factorization's constants.

    The convex hull of the eight drop cases' polygons; each case pins the
    sub-rates named in its drop condition to zero and removes the rows the
    pin makes unnecessary.  Each case is projected once per process
    (``_compiled_case``); a call evaluates its rows at ``c`` and clips
    the box by them (``polygon_points``), and a case the binning floors
    make infeasible adds nothing.  The silent point (0,0) is
    always reported achievable, even when every split is infeasible.
    """
    if not admissible(c):
        raise InadmissibleConstants(
            f"C = {c.C!r} exceeds P + B = {c.P + c.B!r}"
        )
    theta = [getattr(c, name) for name in CONSTANT_NAMES]
    points = []
    for pinned, dropped in DROP_CASES:
        rows = _compiled_case(pinned, dropped).at(theta)
        if rows is not None:
            points += polygon_points(*rows)
    return region_from_vertices(points or [(0.0, 0.0)])


# ---------------------------------------------------------------------------
# sampling

@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan for the factorization union."""

    seed: int = 0
    num_samples: int = 0
    card_u1p: int = 2
    card_u1: int = 2
    card_v1: int = 2
    card_u2p: int = 2
    card_u2: int = 2
    card_v12: int = 2
    card_v2: int = 2
    card_yh2: int = 2

    def __post_init__(self):
        cards = {f"card_{name}": 1 for name in AUX_LABELS}
        _settings(self, {"seed": 0, "num_samples": 0, **cards})

    def cards(self, channel: ChannelSpec) -> dict[str, int]:
        """Cardinalities of the joint's variables: the auxiliaries, then
        ``channel``'s inputs and outputs."""
        aux = {name: getattr(self, f"card_{name}") for name in AUX_LABELS}
        return {**aux, **dict(zip(AXES, channel.cards))}


def _signature_pairs(index: int, cards: dict[str, int]):
    targets, given = FACTOR_SIGNATURES[index]
    return (
        tuple((l, cards[l]) for l in targets),
        tuple((l, cards[l]) for l in given),
    )


# the nine factors' modes in chain order, then each corner's changes to them
_DEFAULT_MODES = {
    "u1p": "const", "u1": "const", "v1": "const", "u2p": "const",
    "block": ("const", "const", "const"),
    "x1": "uniform", "x2": "uniform", "x3": "const", "yh2": "const",
}

# structured corner factorizations covering the main coding routes
_CORNERS = (
    # inputs on, every auxiliary silent
    {},
    # private messages ride V1 and V2 straight onto the inputs
    dict(v1="uniform", x1=("copy", "v1"),
         block=("const", "const", "uniform"), x2=("copy", "v2")),
    # public primary message on U1, both decoders can track it
    dict(u1="uniform", x1=("copy", "u1")),
    # relay route: destination 2 repeats the primary public layer
    dict(u1p="uniform", x1=("copy", "u1p"), x3=("copy", "u1p")),
    # interference forwarding of the cognitive public layer
    dict(u2p="uniform", x2=("copy", "u2p"), x3=("copy", "u2p")),
    # binned broadcast layer V12 carried by the cognitive input
    dict(block=("const", "uniform", ("copy", "v12")), x2=("copy", "v12")),
    # cognitive split: U2 public against the primary private V1
    dict(v1="uniform", x1=("copy", "v1"),
         block=("uniform", "const", "const"), x2=("copy", "u2")),
    # quantize-and-forward of Y2 with active X3
    dict(v1="uniform", x1=("copy", "v1"),
         block=("const", "const", "uniform"), x2=("copy", "v2"),
         x3="uniform", yh2=("copy", "y2")),
    # everything uniform
    dict(u1p="uniform", u1="uniform", v1="uniform", u2p="uniform",
         block=("uniform", "uniform", "uniform"), x1="uniform", x2="uniform",
         x3="uniform", yh2="uniform"),
)


@functools.lru_cache(maxsize=8)
def _corner_tables(cards: tuple) -> tuple[tuple[np.ndarray, ...], ...]:
    """The nine tables of each of ``_CORNERS`` over the (label, cardinality)
    pairs ``cards``, before normalization: read-only, and held for the last
    eight cards tuples, so a process builds them once per cards."""
    cards, catalog = dict(cards), []
    for corner in _CORNERS:
        modes = {**_DEFAULT_MODES, **corner}.values()
        catalog.append(tuple(
            _mode_table(*_signature_pairs(i, cards), m) for i, m in enumerate(modes)
        ))
    for table in itertools.chain(*catalog):
        table.setflags(write=False)
    return tuple(catalog)


def _random_tables(cards: dict[str, int], seed) -> tuple[np.ndarray, ...]:
    """Nine tables over ``cards``, each row a flat Dirichlet(1) draw on
    ``default_rng(seed)`` (a generator is its own seed), drawn as
    ``ConditionalFactor.random`` draws them."""
    rng = np.random.default_rng(seed)
    return tuple(
        rng.dirichlet(np.ones(math.prod(map(cards.get, t))), math.prod(map(cards.get, g)))
        .reshape([cards[l] for l in g + t])
        for t, g in FACTOR_SIGNATURES
    )


def _stream(cards: dict[str, int], cfg: SamplerConfig):
    """Each factorization's nine tables over ``cards``, before normalization,
    in ``sample_factorizations``' order.  Raises ``TooLarge`` before any
    table is built when a joint would exceed ``pmf.JOINT_CELL_LIMIT`` cells."""
    check_cells(math.prod(cards.values()), "the inner joint")
    const = _mode_table(*_signature_pairs(8, cards), "const")
    draws = (_random_tables(cards, [cfg.seed, i]) for i in range(cfg.num_samples))
    for tables in itertools.chain(_corner_tables(tuple(cards.items())), draws):
        yield tables
        if not np.array_equal(tables[8], const):
            yield tables[:8] + (const,)


def _factorization(cards: dict[str, int], tables) -> InnerFactorization:
    """The factorization of nine tables over ``cards``: each one factor's,
    or a stack of them, which makes a batch (checked once)."""
    return InnerFactorization(tuple(
        ConditionalFactor(*_signature_pairs(i, cards), table)
        for i, table in enumerate(tables)
    ))


def sample_factorizations(
    channel: ChannelSpec, cfg: SamplerConfig
) -> tuple[InnerFactorization, ...]:
    """Deterministic factorization stream: corners, then Dirichlet(1) draws.

    Every entry whose output-estimate factor is not already constant is
    followed by a copy with that factor forced constant, so distributions
    rejected by the admissibility gate still contribute their base region.
    The corners' tables are built once per process per cardinalities, and
    sample i is drawn on ``default_rng([seed, i])``.  Each entry is one row
    of the tables ``inner_region`` stacks, built by the same constructors.
    Raises ``TooLarge``, before building anything, when the joint would
    hold more than ``pmf.JOINT_CELL_LIMIT`` cells.
    """
    cards = cfg.cards(channel)
    return tuple(_factorization(cards, tables) for tables in _stream(cards, cfg))


def _sample_record(index: int, adm: bool, c: InnerConstants, vertices: int) -> str:
    parts = [f"sample={index}", f"admissible={1 if adm else 0}"]
    parts.extend(f"{name}={getattr(c, name):.12g}" for name in CONSTANT_NAMES)
    parts.append(f"vertices={vertices}")
    return " ".join(parts)


def _chunk_constants(rows, cards: dict[str, int], channel: ChannelSpec) -> np.ndarray:
    """The constants of each factorization in ``rows`` (``_stream``'s), one
    row each: each link is stacked, checked and normalized once, the chain
    multiplied once over the batch, and one ``Information`` table scores it."""
    joints = assemble_joint(_factorization(cards, map(np.stack, zip(*rows))), channel).probs
    return _constant_rows(Information(joints, " ".join(JOINT_LABELS)))


def inner_region(
    channel: ChannelSpec, cfg: SamplerConfig
) -> tuple[Region2D, tuple[str, ...]]:
    """Union of per-factorization regions plus a one-line-per-sample log.

    Inadmissible samples contribute nothing but are logged.  The result
    only grows as samples are added and never loses the silent point.
    The stream's tables are scored a chunk at a time, each chunk at most
    ``_INNER_CELLS`` joint cells (one joint at least): per chain link, one
    stack of the chunk's tables, checked and normalized once, and one
    product over the batch; then one normalization of all its joints and
    one table of constants (``_chunk_constants``).  No row's bytes depend
    on the rows beside it, so the chunking moves no byte.
    """
    cards = cfg.cards(channel)
    rows = _stream(cards, cfg)
    size = max(1, _INNER_CELLS // math.prod(cards.values()))
    lines, points = [], []
    for chunk in iter(lambda: tuple(itertools.islice(rows, size)), ()):
        for index, row in enumerate(_chunk_constants(chunk, cards, channel), len(lines)):
            c = InnerConstants(*map(float, row))
            if not admissible(c):
                lines.append(_sample_record(index, False, c, 0))
                continue
            region = region_for_distribution(c)
            lines.append(_sample_record(index, True, c, len(region.vertices)))
            points += region.vertices.tolist()
    return region_from_vertices(points or [(0.0, 0.0)]), tuple(lines)
