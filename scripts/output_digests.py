"""SHA-256 digests of everything a fixed set of CLI runs prints and writes.

    python scripts/output_digests.py SRC_DIR
    python scripts/output_digests.py --drift OLD_DIR NEW_DIR

Runs each command below as ``python -m cifc_udc`` with
``PYTHONPATH=SRC_DIR/src`` at seeds 3 and 11 and prints one line per
stdout, stderr, exit code and written file: ``seed label item sha256``.
Run it on two source trees and diff the printouts to check that a change
leaves every output byte as it was.

``--drift`` runs the commands on both trees and prints one line for each
output whose bytes differ: ``seed label item drift``, where drift is the
largest absolute difference between the numbers the two outputs hold in
the same places (JSON, CSV and log tokens alike), or ``layout`` when the
text around the numbers differs.  The last line is the largest drift.
It exits 1 when any output differs and 0 when every byte matches, so its
exit status alone says whether a change kept every output byte.

The commands are every command of the benchmark workloads, as
``perfbench/workloads.py`` builds them, plus larger and failing searches:
outer on clean.json at 100 samples and a fan of 64, outer on degraded_z and
hi_in_class, outer on clean.json with its samples and fan read from a
config file, outer on clean.json from its corners alone (0 samples) at a
fan of 1024, whose lines share the envelope's vertices, capacity
semidet-hi on hi_falsified (exit 1), capacity
degraded-z on degraded_z and semidet-hi on hi_in_class at 100 samples and
the default fan of 64 (where the fan's walks share the most candidate
rows), capacity degraded-z on degraded_z from its corners alone (0
samples), capacity semidet-hi on hi_in_class with |V12| = 2 in place of
the default min(|X1||X2|, |X2| + 1) = 3, and outer on the benchmark's
seeded (3,3,2,3,3) channel at |V12| = 4, one more than the benchmark's.
Inner runs on the three fixtures the benchmark leaves out (hi_in_class,
hi_falsified, hi_degenerate), once on clean.json with ternary V12 and
V2, so that drop cases the benchmark rarely reaches are covered too, and
once, corners only, on clean.json with ternary V1, U1p and Yhat2, whose
corner factors reduce a ternary auxiliary onto a binary input (x1 = v1
mod 2, x3 = u1p mod 2) and copy the binary y2 into a ternary yh2.
Inner at 5 samples and outer at 5 samples and a fan of 8 run on each
known-capacity channel of ``tests/test_reductions.py`` (dead inputs, a
degraded relay, an XOR cognitive channel, a degraded binary broadcast
channel), which this script's own tree
writes into the workdir with ``dump_channel``, so both trees read the
same files and a fix to the inner bound shows as drift there.
``classify --hi-check`` runs from the falsifier's probes alone (0 samples)
on hi_falsified and hi_degenerate, so that a pool without draws is covered.
Then ``fm`` projects four seeded systems (two with an equality) onto
(t0, t1) and onto (t1, t0), and ``compare`` checks the clean.json inner
region of the benchmark run against the 100-sample outer region.
"""

import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from cifc_udc import dump_channel  # noqa: E402
from perfbench.workloads import WHY, large_channel, prepare  # noqa: E402

SEEDS = (3, 11)


def _reduction_channels() -> dict:
    """The known-capacity channels of ``tests/test_reductions.py``, by name."""
    spec = importlib.util.spec_from_file_location(
        "test_reductions", ROOT / "tests" / "test_reductions.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {name: channel for name, (channel, _) in module.REDUCTIONS.items()}


REDUCTIONS = _reduction_channels()


def extra_commands(src: Path, seed: int, workdir: Path) -> list:
    """(label, argv) of the runs the benchmark workloads leave out."""
    large = workdir / "large.json"
    large.write_text(json.dumps(large_channel(seed)), encoding="utf-8")
    reductions = {name: workdir / f"{name}.json" for name in REDUCTIONS}
    for name, path in reductions.items():
        path.write_text(dump_channel(REDUCTIONS[name]), encoding="utf-8")
    config = workdir / "outer.cfg"
    config.write_text("samples = 20\nfan = 16\n", encoding="utf-8")
    channel = lambda name: str(src / "channels" / name)
    runs = [
        ("outer-clean-100", ["outer", channel("clean.json"),
                             "--samples", "100", "--fan", "64"]),
        ("outer-degraded_z", ["outer", channel("degraded_z.json"),
                              "--samples", "20", "--fan", "16"]),
        ("outer-hi_in_class", ["outer", channel("hi_in_class.json"),
                               "--samples", "20", "--fan", "16"]),
        ("outer-clean-config", ["outer", channel("clean.json"),
                                "--config", str(config)]),
        ("outer-clean-fan-1024", ["outer", channel("clean.json"),
                                  "--samples", "0", "--fan", "1024"]),
        ("capacity-hi_falsified", ["capacity", channel("hi_falsified.json"),
                                   "--class", "semidet-hi", "--samples", "20"]),
        ("capacity-degraded_z-100", ["capacity", channel("degraded_z.json"),
                                     "--class", "degraded-z", "--samples", "100"]),
        ("capacity-hi_in_class-100", ["capacity", channel("hi_in_class.json"),
                                      "--class", "semidet-hi", "--samples", "100"]),
        ("capacity-degraded_z-corners", ["capacity", channel("degraded_z.json"),
                                         "--class", "degraded-z", "--samples", "0"]),
        ("capacity-hi_in_class-v12-2", ["capacity", channel("hi_in_class.json"),
                                        "--class", "semidet-hi", "--card-v12", "2",
                                        "--samples", "20"]),
        ("outer-large-v12-4", ["outer", str(large), "--card-v12", "4",
                               "--fan", "8", "--samples", "20"]),
        *(
            (f"inner-{name}", ["inner", channel(f"{name}.json"), "--samples", "20"])
            for name in ("hi_in_class", "hi_falsified", "hi_degenerate")
        ),
        ("inner-clean-v3", ["inner", channel("clean.json"), "--card-v12", "3",
                            "--card-v2", "3", "--samples", "40"]),
        ("inner-clean-aux3", ["inner", channel("clean.json"), "--card-v1", "3",
                              "--card-u1p", "3", "--card-yh2", "3"]),
        *(
            (f"inner-{name}", ["inner", str(path), "--samples", "5"])
            for name, path in reductions.items()
        ),
        *(
            (f"outer-{name}", ["outer", str(path), "--samples", "5", "--fan", "8"])
            for name, path in reductions.items()
        ),
    ]
    runs = [
        (label, argv + ["--seed", str(seed), "--out", str(workdir / f"{label}.json")])
        for label, argv in runs
    ]
    runs += [
        (f"classify-{name}-corners", ["classify", channel(f"{name}.json"), "--hi-check",
                                      "--samples", "0", "--seed", str(seed)])
        for name in ("hi_falsified", "hi_degenerate")
    ]
    for index in range(4):
        system = workdir / f"system-{index}.json"
        system.write_text(json.dumps(fm_system(seed, index)), encoding="utf-8")
        for keep in ("t0,t1", "t1,t0"):
            label = f"fm-{index}-{keep.replace(',', '-')}"
            runs.append((label, ["fm", str(system), "--keep", keep,
                                 "--out", str(workdir / f"{label}.json")]))
    runs.append(("compare-clean", [
        "compare", str(workdir / "inner-fixtures" / "inner-clean.json"),
        str(workdir / "outer-clean-100.json"), "--tol", "1e-6",
    ]))
    return runs


def fm_system(seed: int, index: int) -> dict:
    """A seeded bounded system in the ``fm`` file format: six random
    integer rows with slack around an interior point, a cap on each of the
    four nonnegative variables, and one equality through that point when
    ``index`` is odd."""
    rng = np.random.default_rng([seed, index])
    names = [f"t{i}" for i in range(4)]
    coefs = rng.integers(-3, 4, size=(6, 4)).astype(float)
    anchor = rng.uniform(0.0, 1.0, 4)
    bounds = coefs @ anchor + rng.uniform(0.05, 2.0, 6)
    rows = [[*row, bound] for row, bound in zip(coefs.tolist(), bounds.tolist())]
    rows += [[float(i == j) for j in range(4)] + [cap]
             for i, cap in enumerate(rng.uniform(1.2, 3.0, 4).tolist())]
    doc = {"variables": names, "inequalities": rows, "nonnegative": names}
    if index % 2:
        row = [1.0] + rng.integers(-2, 3, size=3).astype(float).tolist()
        doc["equalities"] = [row + [float(np.dot(row, anchor))]]
    return doc


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(src: Path, tmp: Path) -> dict:
    """Every output of the command set run from ``src``, in print order:
    (seed, label, item) -> bytes."""
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    out = {}
    for seed in SEEDS:
        workdir = tmp / str(seed)
        runs = [
            (command.label.replace(" ", "-"), command.argv)
            for name in WHY
            for command in prepare(name, seed, src, workdir / name)
        ]
        runs += extra_commands(src, seed, workdir)
        for label, args in runs:
            proc = subprocess.run(
                [sys.executable, "-m", "cifc_udc", *args],
                capture_output=True, env=env, cwd=workdir,
            )
            out[seed, label, "stdout"] = proc.stdout
            out[seed, label, "stderr"] = proc.stderr
            out[seed, label, "exit"] = str(proc.returncode).encode()
        for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
            out[seed, path.relative_to(workdir).as_posix(), "file"] = path.read_bytes()
    return out


NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
)


def drift(old: bytes, new: bytes) -> float | None:
    """Largest absolute difference between the numbers of two texts, or
    None when the text around the numbers differs."""
    texts = old.decode(), new.decode()
    if NUMBER.split(texts[0]) != NUMBER.split(texts[1]):
        return None
    pairs = zip(*(map(float, NUMBER.findall(t)) for t in texts))
    return max((abs(a - b) for a, b in pairs), default=0.0)


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if len(argv) == 1:
            for key, data in outputs(Path(argv[0]).resolve(), Path(tmp)).items():
                print(*key, sha(data))
            return 0
        if len(argv) != 3 or argv[0] != "--drift":
            sys.stderr.write(__doc__)
            return 2
        old = outputs(Path(argv[1]).resolve(), Path(tmp) / "old")
        new = outputs(Path(argv[2]).resolve(), Path(tmp) / "new")
    changed = [k for k in dict.fromkeys([*old, *new]) if old.get(k) != new.get(k)]
    largest = 0.0
    for key in changed:
        moved = drift(old[key], new[key]) if key in old and key in new else None
        print(*key, "layout" if moved is None else repr(moved))
        if moved is not None:
            largest = max(largest, moved)
    print("largest", repr(largest))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
