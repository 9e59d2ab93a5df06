"""Search for channels whose high-interference premise survives falsification.

The premise quantifies over every input distribution, which makes honest
in-class examples rare. Two structural facts shape the search:

* With a live helper input (|X3| >= 2) and a y1 that reacts to anything,
  some coupling falsifies the premise. Holding x1 to a constant makes
  I(Y2;X1|X3) vanish, so I(Y1;X1,X3) must vanish for every such coupling,
  which forces p(y1|x1,x2,x3) to ignore x2 and x3; feeding x3 a copy of
  x1 then forces it to ignore x1 as well. So y1 must be pure noise.
  Phase 1 below confirms this empirically: every sampled |X3|=2 channel
  with an informative y1 is falsified.

* With |X3| = 1 the x3=x1 coupling disappears and informative-y1 channels
  can survive. Phase 2 scans deterministic output rules y1(x1,x2),
  y2(x1,x2) and reports the survivors together with their capacity
  regions. The shipped fixture channels/hi_in_class.json (y1 = x2,
  y2 = (x1, x2)) comes from this scan.

Deterministic for a fixed --seed.
"""

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cifc_udc import (  # noqa: E402
    ChannelSpec,
    SearchConfig,
    capacity_semidet_hi,
    classify,
    hi_regime_falsify,
)
from cifc_udc.errors import CifcError  # noqa: E402


def random_z_channel(rng, card_x3=2):
    """Deterministic outputs with y1 reacting to (x1, x3) only."""
    while True:
        y1_rule = rng.integers(0, 2, size=(2, card_x3))
        y2_rule = rng.integers(0, 2, size=(2, 2, card_x3))
        if y1_rule.min() != y1_rule.max():
            break
    return ChannelSpec.from_outputs(
        (2, 2, card_x3, 2, 2),
        lambda x1, x2, x3: (int(y1_rule[x1, x3]), int(y2_rule[x1, x2, x3])),
    )


def phase_one(seed, trials, samples):
    print(f"phase 1: {trials} random |X3|=2 channels with informative y1")
    rng = np.random.default_rng([seed, 1])
    falsified = 0
    for index in range(trials):
        ch = random_z_channel(rng)
        report = hi_regime_falsify(
            ch, SearchConfig(seed=seed + index, num_samples=samples)
        )
        if report.falsified:
            falsified += 1
        else:
            print(f"  trial {index}: SURVIVOR (margin {report.margin:.3g})")
    print(f"  falsified {falsified}/{trials}"
          + ("  (matches the structural argument)" if falsified == trials else ""))


def informative(region):
    verts = np.asarray(region.vertices, dtype=float)
    return verts[:, 0].max() > 1e-6 and verts[:, 1].max() > 1e-6


def phase_two(seed, samples, card_y2=4):
    print("phase 2: exhaustive |X3|=1 deterministic rules, binary y1")
    survivors = []
    rules = list(itertools.product(range(2), repeat=4))
    for y1_flat in rules:
        for y2_kind in ("pair", "xor", "x2only"):
            y1_rule = np.array(y1_flat).reshape(2, 2)
            if y1_rule.min() == y1_rule.max():
                continue  # dead y1 is the degenerate case, skip

            def outputs(x1, x2, x3, y1_rule=y1_rule, kind=y2_kind):
                if kind == "pair":
                    y2 = x1 * 2 + x2
                elif kind == "xor":
                    y2 = x1 ^ x2
                else:
                    y2 = x2
                return (int(y1_rule[x1, x2]), y2)

            cards = (2, 2, 1, 2, card_y2 if y2_kind == "pair" else 2)
            ch = ChannelSpec.from_outputs(cards, outputs)
            if not classify(ch).is_semi_deterministic:
                continue
            report = hi_regime_falsify(
                ch, SearchConfig(seed=seed, num_samples=samples)
            )
            if report.falsified:
                continue
            try:
                region, _, _ = capacity_semidet_hi(
                    ch, SearchConfig(seed=seed, num_samples=40, fan=17)
                )
            except CifcError:
                continue
            tag = f"y1{y1_flat} y2={y2_kind}"
            if informative(region):
                survivors.append((tag, region))
                print(f"  SURVIVOR {tag}: vertices "
                      f"{[tuple(round(float(c), 6) for c in v) for v in region.vertices]}")
    if not survivors:
        print("  none found at this budget")
    return survivors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--samples", type=int, default=60)
    args = parser.parse_args()
    phase_one(args.seed, args.trials, args.samples)
    phase_two(args.seed, args.samples)


if __name__ == "__main__":
    main()
