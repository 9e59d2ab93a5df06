"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--samples", "1", "--fan", "2"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_by_name_with_its_unit(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), *TINY],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in LAYER_METRICS
    ]


def test_scaling_to_the_reference_speed():
    assert speed.scale(2.0, speed.REFERENCE_S) == pytest.approx(2.0)
    assert speed.scale(2.0, 2 * speed.REFERENCE_S) == pytest.approx(1.0)


def test_corrupted_region_document_fails_the_check(tmp_path):
    from cifc_udc import cli

    commands = workloads.prepare("inner-fixtures", 0, ROOT, tmp_path, samples=0)
    _, _, outcomes = run.run_pass(commands, cli.main)
    ledger = run.Ledger(commands)
    ledger.check(0, outcomes)
    assert (ledger.attempted, ledger.failed) == (3, 0)

    clean = commands[0]
    got = outcomes[clean.label]
    doc = json.loads(got.files[".json"])
    doc["region"]["vertices"] = [
        [x, min(y, 0.9)] for x, y in doc["region"]["vertices"]
    ]
    got.files[".json"] = json.dumps(doc).encode()
    got.doc = doc
    assert clean.check(got, outcomes)
    ledger.check(1, outcomes)
    assert (ledger.attempted, ledger.failed) == (6, 1)
    assert "unit square" in ledger.problems[0]


def test_second_large_alphabet_seed_differs():
    assert workloads.large_channel(1)["p"] != workloads.large_channel(2)["p"]
    assert workloads.large_channel(5) == workloads.large_channel(5)


def test_fails_without_the_repository(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "speed.py"):
        (copy / name).write_bytes((HERE / name).read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "inner-fixtures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
