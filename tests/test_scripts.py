"""The scripts under ``scripts/`` run to completion on a small budget."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


def test_demo_regions_exits_zero(tmp_path):
    proc = run_script(
        "demo_regions.py", "channels/degraded_z.json", "--samples", 2,
        "--out-dir", tmp_path,
    )
    assert proc.returncode == 0, proc.stderr


def test_find_hi_channel_exits_zero():
    proc = run_script("find_hi_channel.py", "--trials", 1, "--samples", 2)
    assert proc.returncode == 0, proc.stderr
