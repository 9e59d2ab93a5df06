"""Benchmark of the cifc-udc command line.

Run it from the root of a checkout of the repository:

    python3 perfbench/run.py --workload inner-fixtures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One caller runs the workload's commands through ``cifc_udc.cli.main`` in
this process, in a closed loop: each command starts when the previous one
returns, with ``--threads 1``. A pass is one run of the workload's command
list. After set-up and one warm-up pass, passes repeat until ``--seconds``
have gone by (at least three are measured; with tracing, at least one of
each kind). Every pass's outputs are checked and their digests compared
with the warm-up pass.

``--trace 0`` reports the end-to-end metrics, measured untraced. The two
times are taken at a reference speed of the machine (see ``speed.py``): a
shared host slows a run by up to half for tens of seconds at a time, and a
reference kernel timed alongside the commands takes that out. The raw
figures go to the report as ``wall_raw_s`` and ``setup_raw_s``.

- ``wall_s``: wall time of a pass, summed over its commands of each
  command's median time; each time is scaled by the kernel's reference
  time over its time around that command;
- ``setup_s``: median over nine fresh interpreters that import the
  package and write or read the workload's inputs, each scaled by the
  kernel's reference time over its time in that interpreter;
- ``peak_rss_mb``: peak resident memory of this process, which runs one
  workload only;
- ``region_area``: summed area of every region a pass produced. It is
  deterministic for a seed, and a weaker search shrinks it.

The per-subcommand times (``inner_s``, ``outer_s``, ``capacity_s``,
``classify_s``) and areas (``inner_area``, ``outer_area``,
``capacity_area``) go to the report only, because each exists on some
workloads and the metrics must exist on all of them.

``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics of the traced ones (see ``tracing.py``), with the
tracing overhead as traced minus untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts
commands, over every pass, that exited non-zero, failed an output check
or wrote different bytes than the warm-up pass. The line before it,
starting ``# report``, holds the full record, which is also written to
``perfbench/out/``. ``--workload all`` runs each workload in its own
process and prints one table.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import speed
import workloads
from tracing import LAYER_METRICS, Tracer, function_self_times, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("inner-fixtures", "search-fixtures", "large-alphabet")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("region_area", "bits2"),
)
SUBCOMMANDS = ("inner", "outer", "capacity", "classify")
AREA_KINDS = ("inner", "outer", "capacity")
MIN_PASSES = 3
SETUP_REPEATS = 9


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--samples", type=int, default=None,
                   help="replace every command's --samples (smoke runs only)")
    p.add_argument("--fan", type=int, default=None,
                   help="replace every command's --fan (smoke runs only)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def machine() -> dict:
    """Where the figures were taken."""
    import numpy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "caches": {},
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    with contextlib.suppress(OSError):
        for index in sorted(cache_dir.glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    return info


def _size_bytes(text):
    """'2048K' (the sysfs cache size format) in bytes; None if unknown."""
    if not text:
        return None
    scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1], 1)
    digits = text.rstrip("KMG")
    return int(digits) * scale if digits.isdigit() else None


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


# ---------------------------------------------------------------------------
# one workload in this process

def measure_setup(name, seed, samples, fan) -> list:
    """Fresh interpreters that import the package and prepare the inputs.

    Each also times the speed kernel before and after; a pair per
    interpreter: its set-up time without the kernel's, and the median
    kernel time.
    """
    runs = []
    for k in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        code = (
            f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}\n"
            "import json, speed\n"
            "from time import perf_counter\n"
            "start = perf_counter(); before = speed.burst(); t = perf_counter() - start\n"
            "import cifc_udc.cli, workloads\n"
            "from pathlib import Path\n"
            f"workloads.prepare({name!r}, {seed}, Path({str(ROOT)!r}), "
            f"Path({str(workdir)!r}), {samples!r}, {fan!r})\n"
            "start = perf_counter(); after = speed.burst(); t += perf_counter() - start\n"
            "print(json.dumps([t, before + after]))\n"
        )
        try:
            start = perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True)
            wall = perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        kernel_s, kernel_times = json.loads(proc.stdout.splitlines()[-1])
        runs.append((wall - kernel_s, statistics.median(kernel_times)))
    return runs


def run_pass(commands, cli_main, tracer=None, sampler=None):
    """Run the command list back to back; return pass and command times.

    A command's time is (start, end, seconds); the seconds leave out the
    time the sampler's ticks took.
    """
    for cmd in commands:
        if cmd.out is not None:
            for path in _siblings(cmd.out):
                path.unlink(missing_ok=True)
    outcomes, times = {}, {}
    spent = sampler.spent if sampler else 0.0
    start = perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        ticks = sampler.spent if sampler else 0.0
        began = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = cli_main(cmd.argv)
                else:
                    rc = tracer.call("cli.main", cli_main, (cmd.argv,), {})
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                rc = -1
        ended = perf_counter()
        ticks = (sampler.spent if sampler else 0.0) - ticks
        times[cmd.label] = (began, ended, ended - began - ticks)
        outcomes[cmd.label] = workloads.Outcome(rc, out.getvalue(), err.getvalue())
    wall = perf_counter() - start - (sampler.spent if sampler else 0.0) + spent
    for cmd in commands:
        if cmd.out is None:
            continue
        got = outcomes[cmd.label]
        for path in _siblings(cmd.out):
            if path.exists():
                got.files[path.suffix] = path.read_bytes()
        if ".json" in got.files:
            with contextlib.suppress(ValueError):
                got.doc = json.loads(got.files[".json"])
    return wall, times, outcomes


def _siblings(out: Path):
    return [out.with_suffix(s) for s in (".json", ".csv", ".log")]


def _digest(outcome) -> str:
    h = hashlib.sha256(outcome.stdout.encode())
    for suffix in sorted(outcome.files):
        h.update(suffix.encode() + b"\0" + outcome.files[suffix])
    return h.hexdigest()


class Ledger:
    """Counts commands and failures over every pass of a run."""

    def __init__(self, commands):
        self.commands = commands
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, pass_no, outcomes) -> None:
        digests = {label: _digest(o) for label, o in outcomes.items()}
        if self.reference is None:
            self.reference = digests
        for cmd in self.commands:
            got = outcomes[cmd.label]
            self.attempted += 1
            if got.rc != 0:
                problems = [f"exit code {got.rc}: {got.stderr.strip()[-300:]}"]
            else:
                problems = cmd.check(got, outcomes) if cmd.check else []
            if digests[cmd.label] != self.reference[cmd.label]:
                problems.append("output bytes differ from the first pass")
            if problems:
                self.failed += 1
                self.problems.append(f"pass {pass_no} {cmd.label}: {'; '.join(problems)}")


def _areas(commands, outcomes) -> dict:
    areas = {kind: 0.0 for kind in AREA_KINDS}
    for cmd in commands:
        doc = outcomes[cmd.label].doc
        if cmd.kind in areas and doc is not None:
            with contextlib.suppress(KeyError, TypeError, IndexError):
                areas[cmd.kind] += workloads.area(doc["region"]["vertices"])
    return areas


def run_workload(args) -> int:
    if not (SRC / "cifc_udc" / "cli.py").is_file() or not (ROOT / "channels").is_dir():
        sys.stderr.write(
            f"error: {SRC / 'cifc_udc'} or {ROOT / 'channels'} is missing; "
            "run this from a checkout of the repository\n"
        )
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    OUT.mkdir(exist_ok=True)
    setup = [] if args.trace else measure_setup(
        args.workload, args.seed, args.samples, args.fan
    )

    from cifc_udc import cli

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = OUT / f"{tag}.spans.jsonl.gz"
    tracer = Tracer() if args.trace else None
    sampler = None if tracer else speed.Sampler()
    try:
        commands = workloads.prepare(
            args.workload, args.seed, ROOT, workdir, args.samples, args.fan
        )
        ledger = Ledger(commands)
        if sampler:
            sampler.start()
        _, _, first = run_pass(commands, cli.main, sampler=sampler)  # warm-up and reference
        ledger.check(0, first)
        areas = _areas(commands, first)

        walls, traced_walls, passes, per_layer = [], [], [], []
        self_times = {}
        started = perf_counter()
        with (gzip.open(spans_file, "wt") if tracer else contextlib.nullcontext()) as sink:
            if sink is not None:
                sink.write(json.dumps(["name", "start", "end", "parent", "pass"]) + "\n")
            pass_no = 0
            while (
                len(walls) < (1 if tracer else MIN_PASSES)
                or (tracer is not None and not traced_walls)
                or perf_counter() - started < args.seconds
            ):
                pass_no += 1
                traced = tracer is not None and pass_no % 2 == 1
                if traced:
                    tracer.pass_id = pass_no
                    tracer.install()
                try:
                    wall, times, outcomes = run_pass(
                        commands, cli.main, tracer if traced else None, sampler
                    )
                finally:
                    if traced:
                        tracer.uninstall()
                ledger.check(pass_no, outcomes)
                if not traced:
                    walls.append(wall)
                    passes.append(times)
                    continue
                traced_walls.append(wall)
                spans = tracer.take()
                metrics = layer_metrics(spans)
                metrics["cli.bytes_written"] = sum(
                    o.bytes_written() for o in outcomes.values()
                )
                per_layer.append(metrics)
                for name, value in function_self_times(spans).items():
                    self_times.setdefault(name, []).append(value)
                for s in spans:
                    sink.write(json.dumps(s[:5]) + "\n")
    finally:
        if sampler:
            sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    median = statistics.median
    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller, --threads 1, in-process cli.main",
        "commands": [" ".join(c.argv) for c in commands],
        "machine": machine(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failed_ops": {
            "value": ledger.failed / ledger.attempted,
            "unit": "share",
            "base": f"{ledger.attempted} commands attempted over "
                    f"{1 + len(walls) + len(traced_walls)} passes",
        },
        "problems": ledger.problems[:20],
        "pass_wall_s": walls,
    }
    if args.trace:
        metrics = {
            name: {"value": median(m[name] for m in per_layer), "unit": unit}
            for name, unit, *_ in LAYER_METRICS if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = {
            "value": median(traced_walls) - median(walls), "unit": "s"
        }
        report["traced_pass_wall_s"] = traced_walls
        report["targets"] = {
            name: {"moves": moves, "workload": where}
            for name, _, _, moves, where in LAYER_METRICS
        }
        report["self_s_by_function"] = dict(sorted(
            ((name, median(v + [0.0] * (len(per_layer) - len(v))))
             for name, v in self_times.items()),
            key=lambda item: -item[1],
        )[:15])
        per_call = metrics["outer.marginal_entropies_bytes_per_call"]["value"]
        l2 = _size_bytes(report["machine"]["caches"].get("L2"))
        report["marginal_entropies_bytes_per_call"] = {
            "value": per_call,
            "l2_bytes_per_core": l2,
            "share_of_l2": per_call / l2 if l2 else None,
            "label": "computed from input nbytes, not measured traffic",
        }
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        # a command's time is its median over the passes, each pass's time
        # scaled to the reference speed; a pass is the sum of its commands
        scaled = [
            {c.label: sampler.at_reference(t[2], t[0], t[1]) for c in commands
             for t in [times[c.label]]}
            for times in passes
        ]
        per_command = {c.label: median(p[c.label] for p in scaled) for c in commands}
        setup_scaled = [speed.scale(raw, local) for raw, local in setup]
        values = {
            "wall_s": sum(per_command.values()),
            "setup_s": median(setup_scaled),
            "peak_rss_mb": rss_mb,
            "region_area": sum(areas.values()),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        pass_scaled = [sum(p.values()) for p in scaled]
        report["pass_wall_s"] = pass_scaled
        report["wall_s_quartiles"] = list(_quartiles(pass_scaled)[::2])
        report["command_s"] = per_command
        report["pass_wall_raw_s"] = walls
        report["wall_raw_s"] = median(walls)
        report["setup_runs_s"] = setup_scaled
        report["setup_raw_runs_s"] = [raw for raw, _ in setup]
        report["setup_raw_s"] = median(raw for raw, _ in setup)
        report["speed"] = {
            "kernel_reference_s": speed.REFERENCE_S,
            "kernel_median_s": median(d for _, d in sampler.samples)
            if sampler.samples else None,
            "samples": len(sampler.samples),
            "sampling_s": sampler.spent,
            "setup_kernel_s": [local for _, local in setup],
        }
        present = {c.kind for c in commands}
        report["by_subcommand"] = {
            f"{k}_s": {
                "value": sum(per_command[c.label] for c in commands if c.kind == k),
                "unit": "s",
            }
            for k in SUBCOMMANDS if k in present
        }
        report["by_subcommand"].update({
            f"{k}_area": {"value": areas[k], "unit": "bits2"}
            for k in AREA_KINDS if k in present
        })
    report["metrics"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    for line in ledger.problems[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    print("# report " + json.dumps(report))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in its own process

def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.samples is not None:
            argv += ["--samples", str(args.samples)]
        if args.fan is not None:
            argv += ["--fan", str(args.fan)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(f"error: workload {name} exited {proc.returncode}\n")
            return proc.returncode or 1
        report = json.loads(lines[-2][len("# report "):])
        results[name] = json.loads(lines[-1])
        rows = dict(report["metrics"])
        rows.update(report.get("by_subcommand", {}))
        rows["failed_ops"] = report["failed_ops"]
        for metric, entry in rows.items():
            print(f"{name:16s} {metric:42s} {entry['value']:14.6g} {entry['unit']}")
        print(f"{name:16s} {'failed_ops base':42s} {report['failed_ops']['base']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
