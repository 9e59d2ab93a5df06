"""Compute every applicable region for one channel file and export them.

Runs the classifier, the achievable-rate sampler, the converse-bound
estimator, and (when the channel belongs to a solvable class) the exact
capacity search, then writes each region as JSON + CSV into --out-dir
and prints a one-line summary per region.

Example:
    python3 scripts/demo_regions.py channels/degraded_z.json --out-dir out
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cifc_udc import (  # noqa: E402
    SamplerConfig,
    SearchConfig,
    capacity_degraded_z,
    capacity_semidet_hi,
    classify,
    inner_region,
    load_channel,
    outer_region_estimate,
    region_to_dict,
)
from cifc_udc.errors import CifcError, HiRegimeFalsified  # noqa: E402


def export(out_dir, name, region, extra=None):
    doc = {"region": region_to_dict(region)}
    if extra:
        doc.update(extra)
    (out_dir / f"{name}.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )
    rows = ["R1,R2"] + [f"{x:.12g},{y:.12g}" for x, y in region.vertices]
    (out_dir / f"{name}.csv").write_text("\n".join(rows) + "\n")
    verts = [tuple(round(float(c), 4) for c in v) for v in region.vertices]
    print(f"{name:>10}: {verts}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("channel")
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=50)
    args = parser.parse_args()

    channel = load_channel(Path(args.channel).read_text())
    out_dir = Path(args.out_dir)
    out_dir.mkdir(exist_ok=True)

    report = classify(channel)
    print(f"channel {args.channel}: z={report.is_z} "
          f"degraded={report.is_degraded} "
          f"semidet={report.is_semi_deterministic}")

    inner, log = inner_region(
        channel, SamplerConfig(seed=args.seed, num_samples=args.samples)
    )
    (out_dir / "inner.log").write_text("\n".join(log) + "\n")
    export(out_dir, "inner", inner)

    outer, caveat = outer_region_estimate(
        channel, SearchConfig(seed=args.seed, num_samples=args.samples)
    )
    export(out_dir, "outer", outer, extra={"caveat": caveat})

    cfg = SearchConfig(seed=args.seed, num_samples=args.samples)
    if report.is_z and report.is_degraded:
        region, _ = capacity_degraded_z(channel, cfg)
        export(out_dir, "capacity", region, extra={"class": "degraded-z"})
    elif report.is_semi_deterministic:
        try:
            region, hi, _ = capacity_semidet_hi(channel, cfg)
            export(out_dir, "capacity", region,
                   extra={"class": "semidet-hi", "report": hi.to_dict()})
        except HiRegimeFalsified as exc:
            print(f"  capacity: skipped ({exc})")
        except CifcError as exc:
            print(f"  capacity: skipped ({type(exc).__name__}: {exc})")
    else:
        print("  capacity: channel is outside both solvable classes")


if __name__ == "__main__":
    main()
