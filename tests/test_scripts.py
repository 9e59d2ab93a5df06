"""The scripts under ``scripts/`` run to completion on a small budget."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from cifc_udc import ChannelSpec, cli, dump_channel

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


def test_fixture_channels_match_their_generator():
    """Each committed fixture is what ``make_channels.py`` would write."""
    spec = importlib.util.spec_from_file_location(
        "make_channels", ROOT / "scripts" / "make_channels.py"
    )
    make_channels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_channels)
    names = sorted(p.name for p in (ROOT / "channels").glob("*.json"))
    assert sorted(make_channels.FIXTURES) == names
    for name, (cards, rule) in make_channels.FIXTURES.items():
        want = dump_channel(ChannelSpec.from_outputs(cards, rule))
        assert (ROOT / "channels" / name).read_text() == want, name


def test_cli_sizes_commands(tmp_path):
    """The timed runs read their channels from the given tree; a full run
    takes seconds, so only the two inner runs (under a second together)
    and the usage error run here."""
    spec = importlib.util.spec_from_file_location("cli_sizes", ROOT / "scripts" / "cli_sizes.py")
    cli_sizes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_sizes)
    runs = cli_sizes.commands(ROOT, tmp_path)
    assert [argv[0] for _, argv in runs] == ["outer"] * 3 + ["inner"] * 2 + ["outer"] * 3 + [
        "capacity"] * 2
    # inner on large_channel(1) from its corners, with the auxiliary cards
    # at 2 and then all but |Yhat2| at 3
    assert [argv[1:4] for _, argv in runs[3:5]] == [[runs[0][1][1], "--samples", "0"]] * 2
    cards = dict(zip(runs[4][1][4::2], runs[4][1][5::2]))
    assert runs[3][1][4:] == [] and cards == {
        f"--card-{name}": "3" for name in ("u1p", "u1", "v1", "u2p", "u2", "v12", "v2")
    }
    assert [argv[1] for _, argv in runs[5:8]] == [str(ROOT / "channels" / "clean.json")] * 3
    assert [argv[2:] for _, argv in runs[5:8]] == [
        ["--samples", "500", "--fan", "64"], ["--samples", "500", "--fan", "256"],
        ["--samples", "0", "--fan", "4096"],
    ]
    assert [argv[1:4:2] for _, argv in runs[8:]] == [
        [str(ROOT / "channels" / "degraded_z.json"), "degraded-z"],
        [str(ROOT / "channels" / "hi_in_class.json"), "semidet-hi"],
    ]
    assert all(Path(argv[1]).is_file() for _, argv in runs)
    for _, argv in runs[3:5]:
        assert cli.main([*argv, "--seed", "1", "--out", str(tmp_path / "out.json")]) == 0
    assert run_script("cli_sizes.py").returncode == 2
