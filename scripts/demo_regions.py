"""Compute every applicable region for one channel file and export them.

Runs the classifier, then the CLI's achievable-rate sampler (``inner``),
converse-bound estimator (``outer``) and, when the channel belongs to a
solvable class, its exact capacity search (``capacity --class``).  Each
command writes its own JSON, CSV (and, for ``inner``, log) documents into
--out-dir, as ``cifc-udc ... --out`` does; the script prints a one-line
summary of each region, read back from the JSON it wrote.

Example:
    python3 scripts/demo_regions.py channels/degraded_z.json --out-dir out
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cifc_udc import classify, cli, load_channel  # noqa: E402


def run(name, channel, out_dir, *flags):
    """``cifc-udc NAME CHANNEL FLAGS --out OUT_DIR/NAME.json``: its exit
    status and what it wrote to stderr, after a summary when it succeeded."""
    out = out_dir / f"{name}.json"
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        status = cli.main([name, channel, *flags, "--out", str(out)])
    if status == 0:
        vertices = json.loads(out.read_text())["region"]["vertices"]
        verts = [tuple(round(float(c), 4) for c in v) for v in vertices]
        print(f"{name:>10}: {verts}")
    return status, errors.getvalue().strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("channel")
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=50)
    args = parser.parse_args()

    report = classify(load_channel(Path(args.channel).read_text()))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(exist_ok=True)
    print(f"channel {args.channel}: z={report.is_z} "
          f"degraded={report.is_degraded} "
          f"semidet={report.is_semi_deterministic}")

    search = ["--seed", str(args.seed), "--samples", str(args.samples)]
    for name in ("inner", "outer"):
        status, errors = run(name, args.channel, out_dir, *search)
        if status:
            sys.stderr.write(errors + "\n")
            return status

    if report.is_z and report.is_degraded:
        klass = "degraded-z"
    elif report.is_semi_deterministic:
        klass = "semidet-hi"
    else:
        print("  capacity: channel is outside both solvable classes")
        return 0
    status, errors = run("capacity", args.channel, out_dir, "--class", klass, *search)
    if status:
        print(f"  capacity: skipped ({errors.removeprefix('HiRegimeFalsified: ')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
