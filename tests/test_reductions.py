"""Small channels with known capacity regions, against both bounds.

Each entry reduces the CIFC-UDC to a network whose capacity is known in
closed form: a channel whose senders have no inputs, a physically
degraded relay channel and a cognitive channel with a noiseless XOR link.
In every direction of an 8-direction fan, at 0 and 5 samples (seed 1),
the inner region stays within the capacity and the outer estimate
reaches it.  Where the inner bound misses today, the check is a strict
xfail that names the ROADMAP item that mends it, so that the mending PR
sees it pass.
"""

import functools
import math

import numpy as np
import pytest

from cifc_udc import (
    ChannelSpec,
    SamplerConfig,
    SearchConfig,
    inner_region,
    outer_region_estimate,
)
from cifc_udc.outer import fan_directions
from cifc_udc.polytope import support

FAN = fan_directions(8)
SAMPLES = (0, 5)
INNER_TOL = 1e-9
OUTER_TOL = 1e-6

CROSSOVER = 0.1
# decode-forward capacity of the degraded relay channel (Cover & El Gamal 1979)
RELAY_CAPACITY = 1 + CROSSOVER * math.log2(CROSSOVER) + (1 - CROSSOVER) * math.log2(1 - CROSSOVER)


def degraded_relay() -> ChannelSpec:
    """No cognitive input (|X2| = 1): Y2 = BSC(0.1)(X1) reaches the relay
    destination, which forwards X3, and Y1 = (Y2, X3)."""
    table = np.zeros((2, 1, 2, 4, 2))
    for x1, x3, y2 in np.ndindex(2, 2, 2):
        table[x1, 0, x3, 2 * y2 + x3, y2] = 1 - CROSSOVER if y2 == x1 else CROSSOVER
    return ChannelSpec((2, 1, 2, 4, 2), table)


# name -> (channel, support of its capacity region along (lam1, lam2))
REDUCTIONS = {
    # |X1| = |X2| = 1: no sender has an input, so the capacity is {(0, 0)}
    "dead_inputs": (
        ChannelSpec.from_outputs((1, 1, 2, 2, 2), lambda x1, x2, x3: (x3, x3)),
        lambda lam: 0.0,
    ),
    # R1 <= 1 - h(0.1), R2 = 0
    "degraded_relay": (degraded_relay(), lambda lam: lam[0] * RELAY_CAPACITY),
    # |X3| = 1, y1 = x1, y2 = x1 xor x2: sender 2 knows message 1 and
    # cancels it, so the capacity is the unit square
    "xor_cognitive": (
        ChannelSpec.from_outputs((2, 2, 1, 2, 2), lambda x1, x2, x3: (x1, x1 ^ x2)),
        lambda lam: lam[0] + lam[1],
    ),
}

ITEM_1 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: drop cases without row f1 leave R1p free, so R1 "
    "takes I(Y1;...,X3) from an X3 that carries no message",
)
ITEM_2 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2: the corner catalog holds no constant X1 and no "
    "XOR map, so no factorization cancels message 1 at destination 2",
)


@functools.cache
def regions(name: str, samples: int):
    channel, _ = REDUCTIONS[name]
    inner, _ = inner_region(channel, SamplerConfig(seed=1, num_samples=samples))
    outer, _ = outer_region_estimate(
        channel, SearchConfig(seed=1, num_samples=samples, fan=len(FAN))
    )
    return inner, outer


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("name", [
    pytest.param("dead_inputs", marks=ITEM_1),
    pytest.param("degraded_relay", marks=ITEM_1),
    "xor_cognitive",
])
def test_inner_stays_within_the_capacity(name, samples):
    inner, _ = regions(name, samples)
    capacity = REDUCTIONS[name][1]
    for lam in FAN:
        assert support(inner, lam) <= capacity(lam) + INNER_TOL, lam


@pytest.mark.parametrize("samples", SAMPLES)
@pytest.mark.parametrize("name", REDUCTIONS)
def test_outer_reaches_the_capacity(name, samples):
    _, outer = regions(name, samples)
    capacity = REDUCTIONS[name][1]
    for lam in FAN:
        assert support(outer, lam) >= capacity(lam) - OUTER_TOL, lam


@ITEM_2
@pytest.mark.parametrize("samples", SAMPLES)
def test_inner_reaches_the_cognitive_corner_on_xor(samples):
    inner, _ = regions("xor_cognitive", samples)
    assert support(inner, (0.0, 1.0)) >= 1.0 - OUTER_TOL
