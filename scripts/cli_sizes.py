"""Wall time of the CLI at the larger sizes the benchmark workloads leave out.

    python scripts/cli_sizes.py SRC_DIR

Imports ``cifc_udc`` from ``SRC_DIR/src`` and runs each command below once
through ``cifc_udc.cli.main`` in this process, timed with
``time.perf_counter``, at seed 1 and the default |V12|:

- outer on ``large_channel(1)``, ``large_channel(2)`` and
  ``large_channel(3)`` (the benchmark's seeded dense channel at
  |X| = (3,3,2,3,3), from ``perfbench/workloads.py``) at 100 samples and a
  fan of 16;
- inner on ``large_channel(1)`` from its corners alone (0 samples), once
  with every auxiliary card at 2 and once with every one but |Yhat2| at 3,
  where a joint holds 708,588 cells;
- outer on ``channels/clean.json`` at 500 samples and a fan of 64, and
  again at a fan of 256, where the envelope's polygon has the most rows;
  and from its corners alone (0 samples) at a fan of 4096, where a sweep
  holds the most walks;
- capacity degraded-z on ``channels/degraded_z.json`` and semidet-hi on
  ``channels/hi_in_class.json`` at 100 samples and the default fan of 64,
  where the walks of a fan share the most candidates.

Prints one JSON object: for each command, its seconds, the |V12| its
caveat or its report names (None for degraded-z, which has no V12) and
the area of its region.  Run it on two source trees,
one after the other on the same host, to compare them.
"""

import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import area, large_channel  # noqa: E402


def commands(src: Path, workdir: Path) -> list:
    """(label, argv) of the timed runs, with inputs written to ``workdir``."""
    runs = []
    for seed in (1, 2, 3):
        path = workdir / f"large-{seed}.json"
        path.write_text(json.dumps(large_channel(seed)), encoding="utf-8")
        runs.append((f"outer (3,3,2,3,3) large_channel({seed}) --samples 100 --fan 16",
                     ["outer", str(path), "--samples", "100", "--fan", "16"]))
    large = str(workdir / "large-1.json")
    runs.append(("inner (3,3,2,3,3) large_channel(1) --samples 0",
                 ["inner", large, "--samples", "0"]))
    threes = [arg for name in ("u1p", "u1", "v1", "u2p", "u2", "v12", "v2")
              for arg in (f"--card-{name}", "3")]
    runs.append(("inner (3,3,2,3,3) large_channel(1) --samples 0, auxiliary cards 3 but yh2",
                 ["inner", large, "--samples", "0", *threes]))
    for samples, fan in (("500", "64"), ("500", "256"), ("0", "4096")):
        runs.append((f"outer channels/clean.json --samples {samples} --fan {fan}",
                     ["outer", str(src / "channels" / "clean.json"),
                      "--samples", samples, "--fan", fan]))
    for klass, name in (("degraded-z", "degraded_z"), ("semidet-hi", "hi_in_class")):
        runs.append((f"capacity channels/{name}.json --class {klass} --samples 100",
                     ["capacity", str(src / "channels" / f"{name}.json"),
                      "--class", klass, "--samples", "100"]))
    return runs


def main(argv) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src / "src"))
    from cifc_udc.cli import main as cli_main

    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, args in commands(src, Path(tmp)):
            out = Path(tmp) / "out.json"
            start = perf_counter()
            code = cli_main([*args, "--seed", "1", "--out", str(out)])
            seconds = perf_counter() - start
            if code:
                sys.stderr.write(f"{label}: exit {code}\n")
                return 1
            doc = json.loads(out.read_text(encoding="utf-8"))
            report[label] = {
                "seconds": round(seconds, 3),
                "card_v12": (doc.get("caveat") or doc.get("report") or {}).get("card_v12"),
                "area": area(doc["region"]["vertices"]),
            }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
