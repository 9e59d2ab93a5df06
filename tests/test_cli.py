import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cifc_udc import cli
from cifc_udc.polytope import region_from_dict, region_from_vertices, regions_close

CHANNELS = Path(__file__).resolve().parents[1] / "channels"


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "cifc_udc", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def channel(name):
    return CHANNELS / name


class TestClassify:
    def test_flags_text(self):
        proc = run_cli("classify", channel("degraded_z.json"))
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "z=true",
            "degraded=true",
            "semi_deterministic=true",
        ]

    def test_hi_check_falsified(self):
        proc = run_cli("classify", channel("hi_falsified.json"), "--hi-check")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert "hi_regime=falsified" in lines
        assert "hi_margin=1" in lines
        assert any(line.startswith("hi_condition=") for line in lines)

    def test_hi_check_in_class(self):
        proc = run_cli(
            "classify", channel("hi_in_class.json"), "--hi-check",
            "--samples", 10,
        )
        assert proc.returncode == 0
        assert "hi_regime=no-violation-found" in proc.stdout.splitlines()


class TestInner:
    def test_corner_region_and_round_trip(self, tmp_path):
        out = tmp_path / "inner.json"
        proc = run_cli(
            "inner", channel("clean.json"), "--samples", 0, "--seed", 1,
            "--out", out,
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        region = region_from_dict(doc["region"])
        assert not region.empty
        target = np.array([1 - 1e-6, 1 - 1e-6])
        ok = all(
            a * target[0] + b * target[1] <= c + 1e-9
            for a, b, c in region.halfplanes
        )
        assert ok
        # log sibling mirrors the embedded log, csv parses to the vertices
        log_lines = (tmp_path / "inner.log").read_text().splitlines()
        assert log_lines == doc["log"]
        assert all("admissible=" in line for line in log_lines)
        csv_lines = (tmp_path / "inner.csv").read_text().splitlines()
        assert csv_lines[0] == "R1,R2"
        parsed = np.array(
            [[float(v) for v in line.split(",")] for line in csv_lines[1:]]
        )
        assert np.allclose(parsed, region.vertices, atol=1e-9)

    def test_stdout_mode(self):
        proc = run_cli("inner", channel("clean.json"), "--samples", 0,
                       "--seed", 0)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert set(doc) == {"region", "log", "record"}


class TestOuter:
    def test_byte_determinism_across_threads(self, tmp_path):
        base = ["outer", channel("degraded_z.json"), "--samples", 12,
                "--seed", 3, "--fan", 9]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(*base, "--out", first).returncode == 0
        assert run_cli(*base, "--threads", 4, "--out", second).returncode == 0
        assert first.read_bytes() == second.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_caveat_present(self):
        proc = run_cli("outer", channel("clean.json"), "--samples", 4,
                       "--seed", 0, "--fan", 5)
        doc = json.loads(proc.stdout)
        assert doc["caveat"]["samples"] == 4
        assert doc["caveat"]["fan"] == 5
        assert "estimate" in doc["caveat"]["kind"]


class TestCapacity:
    def test_degraded_z_square(self, tmp_path):
        out = tmp_path / "cap.json"
        proc = run_cli(
            "capacity", channel("degraded_z.json"), "--class", "degraded-z",
            "--samples", 8, "--seed", 0, "--out", out,
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        got = region_from_dict(doc["region"])
        want = region_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert regions_close(got, want, tol=1e-6)
        assert doc["record"]["evaluated"] >= 8

    def test_semidet_hi_report(self):
        proc = run_cli(
            "capacity", channel("hi_in_class.json"), "--class", "semidet-hi",
            "--samples", 8, "--seed", 0,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["report"]["status"] == "no-violation-found"
        got = region_from_dict(doc["region"])
        want = region_from_vertices([(0, 0), (1, 0), (0, 1)])
        assert regions_close(got, want, tol=1e-6)

    def test_out_of_class_exit(self):
        proc = run_cli("capacity", channel("clean.json"), "--class",
                       "degraded-z")
        assert proc.returncode == 1
        assert "NotDegraded" in proc.stderr

    def test_falsified_exit(self):
        proc = run_cli(
            "capacity", channel("hi_falsified.json"), "--class", "semidet-hi",
            "--samples", 4, "--seed", 0,
        )
        assert proc.returncode == 1
        assert "HiRegimeFalsified" in proc.stderr
        assert "I(Y2;X1|X3)" in proc.stderr


class TestCompare:
    def test_both_directions(self, tmp_path):
        square = tmp_path / "square.json"
        triangle = tmp_path / "triangle.json"
        from cifc_udc.polytope import region_to_dict

        square.write_text(json.dumps(
            region_to_dict(region_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)]))
        ))
        triangle.write_text(json.dumps({
            "region": region_to_dict(
                region_from_vertices([(0, 0), (1, 0), (0, 1)])
            )
        }))
        proc = run_cli("compare", square, triangle)
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "a_contains_b=true",
            "b_contains_a=false",
        ]

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_is_a_usage_error(self, tmp_path, tol):
        from cifc_udc.polytope import region_to_dict

        square = tmp_path / "square.json"
        square.write_text(json.dumps(
            region_to_dict(region_from_vertices([(0, 0), (1, 0), (1, 1), (0, 1)]))
        ))
        proc = run_cli("compare", square, square, "--tol", tol)
        assert proc.returncode == 2
        assert proc.stderr.startswith("UsageError:")
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"halfplanes": [[1, 0, 1]], "vertices": [[0, 0]]},
            {"halfplanes": [[1, 0]], "vertices": [[0, 0]], "empty": False},
            {"halfplanes": [[1, 0, 1]], "vertices": [[0, 0, 0]], "empty": False},
            {"halfplanes": [[1, 0, 1]], "vertices": [[0, 0]], "empty": True},
            {"halfplanes": [[1, 0, 1]], "vertices": [[0, 0, 1], [0, 0, 0]],
             "empty": False},
        ],
        ids=["missing-key", "short-row", "odd-vertex", "empty-with-vertices",
             "vertex-rows-of-three"],
    )
    def test_malformed_region_is_a_parse_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("compare", path, path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"ParseError: {path}: ")
        assert proc.stdout == "" and "Traceback" not in proc.stderr

    def test_vertex_outside_its_halfplanes_is_a_domain_error(self, tmp_path):
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(
            {"halfplanes": [[1, 0, 1]], "vertices": [[0, 0], [2, 0]], "empty": False}
        ))
        proc = run_cli("compare", path, path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("NumericsError:")


class TestFm:
    def make_system(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "variables": ["R1", "R2", "t"],
            "inequalities": [
                [1, 0, 1, 3],
                [0, 0, 1, 2],
                [0, 0, -1, 0],
                [0, 1, 0, 1],
            ],
            "nonnegative": ["R1", "R2"],
        }))
        return path

    def test_projection(self, tmp_path):
        proc = run_cli("fm", self.make_system(tmp_path), "--keep", "R1,R2")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        got = region_from_dict(doc["region"])
        want = region_from_vertices([(0, 0), (3, 0), (3, 1), (0, 1)])
        assert regions_close(got, want, tol=1e-9)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_parse_errors(self, tmp_path, bad):
        path = tmp_path / "system.json"
        for rows in ([[1, 0, f"__{bad}__"]], [[f"__{bad}__", 0, 1]]):
            text = json.dumps({"variables": ["R1", "R2"], "inequalities": rows})
            path.write_text(text.replace(f'"__{bad}__"', bad))
            proc = run_cli("fm", path, "--keep", "R1,R2")
            assert proc.returncode == 2
            assert proc.stderr.startswith("ParseError:")

    @pytest.mark.parametrize("variables", [5, None, "R1", ["R1", 1.5], ["R1", None]])
    def test_variables_must_be_a_list_of_names(self, tmp_path, variables):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"variables": variables, "inequalities": []}))
        proc = run_cli("fm", path, "--keep", "R1,1.5")
        assert proc.returncode == 2
        assert proc.stderr.startswith("ParseError:")
        assert "'variables'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("entry", [5, None, 1.5, True])
    def test_nonnegative_must_list_names(self, tmp_path, entry):
        # a variable named "5" does not make the number 5 a name
        path = tmp_path / "system.json"
        path.write_text(json.dumps({
            "variables": ["R1", "R2", "5"], "inequalities": [],
            "nonnegative": [entry, "R1", "R2"],
        }))
        proc = run_cli("fm", path, "--keep", "R1,R2")
        assert proc.returncode == 2
        assert proc.stderr.startswith("ParseError:")
        assert "'nonnegative'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_nonnegative_name_is_a_domain_error(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(
            {"variables": ["R1", "R2"], "inequalities": [], "nonnegative": ["R3"]}
        ))
        proc = run_cli("fm", path, "--keep", "R1,R2")
        assert proc.returncode == 1
        assert proc.stderr.startswith("UnknownVariable:")

    def test_keep_validation(self, tmp_path):
        for keep in ("R1", "R1,bogus", "R1,R1", "R2, R2"):
            proc = run_cli("fm", self.make_system(tmp_path), "--keep", keep)
            assert proc.returncode == 2, keep
            assert proc.stderr.startswith("UsageError:"), keep

    @pytest.mark.parametrize("variables", [[], ["R1"]])
    def test_a_system_without_both_kept_labels_is_a_usage_error(self, tmp_path, variables):
        # no variables at all is the same usage error as one
        path = tmp_path / "system.json"
        width = len(variables) + 1
        path.write_text(json.dumps({"variables": variables, "inequalities": [[1] * width]}))
        proc = run_cli("fm", path, "--keep", "R1,R2")
        assert proc.returncode == 2
        missing = "R2" if variables else "R1"
        assert proc.stderr == f"UsageError: --keep label {missing!r} not in the system\n"


class TestUsage:
    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate", "x")
        assert proc.returncode == 2

    def test_missing_channel_file(self):
        proc = run_cli("classify", "no-such-file.json")
        assert proc.returncode == 2

    def test_malformed_channel(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("classify", bad)
        assert proc.returncode == 2
        assert "ParseError" in proc.stderr


class TestConfigFile:
    def test_merge_and_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples=6\nseed=3\nfan=9\n# comment line\n")
        base = ["outer", channel("clean.json")]
        from_config = run_cli(*base, "--config", cfg)
        explicit = run_cli(*base, "--samples", 6, "--seed", 3, "--fan", 9)
        assert from_config.stdout == explicit.stdout
        overridden = run_cli(*base, "--config", cfg, "--seed", 4)
        reseeded = run_cli(*base, "--samples", 6, "--seed", 4, "--fan", 9)
        assert overridden.stdout == reseeded.stdout
        assert overridden.stdout != from_config.stdout

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_option=1\n")
        proc = run_cli("outer", channel("clean.json"), "--config", cfg)
        assert proc.returncode == 2
        assert "no_such_option" in proc.stderr


    # every config key each subcommand accepts, and the positionals (and
    # the one required flag) a parse needs
    KEYS = {
        "classify": (["c.json"], {"hi_check", "samples", "seed", "card_v12"}),
        "inner": (["c.json"], {
            "samples", "seed", "threads", "out", "card_u1p", "card_u1",
            "card_v1", "card_u2p", "card_u2", "card_v12", "card_v2",
            "card_yh2",
        }),
        "outer": (["c.json"], {
            "samples", "seed", "card_v12", "fan", "threads", "out",
        }),
        "capacity": (["c.json", "--class", "degraded-z"], {
            "klass", "samples", "seed", "card_v12", "threads", "out",
        }),
        "compare": (["a.json", "b.json"], {"tol"}),
        "fm": (["s.json"], {"keep", "out"}),
    }

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_each_config_key_resolves_like_its_flag(self, tmp_path, command):
        prefix, keys = self.KEYS[command]
        parser = cli._build_parser()
        declared = parser.parse_args([command, *prefix]).options
        assert set(declared) == keys
        values = {int: ("7", 7), float: ("0.25", 0.25), str: ("t0,t1", "t0,t1")}
        cfg = tmp_path / "run.cfg"
        for name, (kind, default) in declared.items():
            if name == "klass":
                # the flag is required, so the accepted key never decides
                cfg.write_text("klass=semidet-hi\n")
                args = parser.parse_args([command, *prefix, "--config", str(cfg)])
                assert cli._resolve(args)["klass"] == "degraded-z"
                continue
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                text, flag_argv, want = "true", [flag], True
            else:
                text, want = values[kind]
                flag_argv = [flag, text]
            assert want != default
            cfg.write_text(f"{name} = {text}\n")
            from_flag = cli._resolve(parser.parse_args([command, *prefix, *flag_argv]))
            from_config = cli._resolve(
                parser.parse_args([command, *prefix, "--config", str(cfg)])
            )
            assert from_flag[name] == from_config[name] == want
            assert from_flag == from_config

    @pytest.mark.parametrize("command", sorted(KEYS))
    def test_parsing_leaves_the_shared_parser_as_it_was(self, capsys, command):
        parser = cli._build_parser()
        fresh = cli._build_parser.__wrapped__()
        assert cli._build_parser() is parser and fresh is not parser
        prefix, keys = self.KEYS[command]
        argv = [command, *prefix]
        defaults = cli._resolve(fresh.parse_args(argv))
        flags = {"samples": "7", "seed": "5", "card_v12": "3", "fan": "9",
                 "tol": "0.25", "keep": "t0,t1", "hi_check": None}
        given = [arg for name in sorted(keys & set(flags))
                 for arg in ("--" + name.replace("_", "-"), flags[name]) if arg]
        assert cli._resolve(parser.parse_args(argv + given)) != defaults
        args = parser.parse_args(argv)
        assert cli._resolve(args) == defaults
        with pytest.raises(TypeError):
            args.options["seed"] = (int, 1)
        # the help texts of the shared parser, after use, and of a new one
        texts = []
        for p in (parser, fresh, parser):
            for help_argv in (["--help"], [command, "--help"]):
                with pytest.raises(SystemExit):
                    p.parse_args(help_argv)
                texts.append(capsys.readouterr().out)
        assert texts[:2] == texts[2:4] == texts[4:] and all(texts)


@pytest.mark.parametrize("name", [
    "clean.json", "degraded_z.json", "semidet.json",
    "hi_in_class.json", "hi_falsified.json", "hi_degenerate.json",
])
def test_fixture_files_load(name):
    proc = run_cli("classify", channel(name))
    assert proc.returncode == 0


@pytest.mark.parametrize("argv", [
    ("outer", "clean.json", "--card-v12", -1),
    ("outer", "clean.json", "--fan", 1),
    ("outer", "clean.json", "--samples", -2),
    ("inner", "clean.json", "--card-u1", 0),
    ("capacity", "degraded_z.json", "--class", "degraded-z", "--seed", -1),
    ("classify", "clean.json", "--hi-check", "--samples", -1),
])
def test_bad_search_settings_are_usage_errors(argv):
    command, name, *rest = argv
    proc = run_cli(command, channel(name), *rest)
    assert proc.returncode == 2
    assert proc.stderr.startswith("UsageError:")
    assert "Traceback" not in proc.stderr


def test_inner_joint_over_the_cell_budget():
    proc = run_cli(
        "inner", channel("clean.json"), "--card-u1", 1000, "--card-u2", 1000
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("TooLarge:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("option, value", [("--card-v12", 512), ("--fan", 10**11)],
                         ids=["card-v12", "fan"])
def test_outer_ascent_over_the_cell_budget(option, value):
    # an ascent sweep, or the fan's supports over the pool, past the budget
    proc = run_cli("outer", channel("clean.json"), option, value)
    assert proc.returncode == 1
    assert proc.stderr.startswith("TooLarge:")
    assert "Traceback" not in proc.stderr


def test_channel_entry_count_past_int64(tmp_path):
    # 2**32 * 2**32 entries wrap to 0 in int64, which an empty "p" matched
    path = tmp_path / "huge.json"
    doc = {"x1": 2**32, "x2": 2**32, "x3": 1, "y1": 1, "y2": 1, "p": []}
    path.write_text(json.dumps(doc))
    proc = run_cli("classify", path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("ShapeMismatch:")
    assert "Traceback" not in proc.stderr


HUGE = 10**400  # a JSON integer no float holds


@pytest.mark.parametrize(
    "command, doc, code, error",
    [
        ("classify", {"x1": 1, "x2": 1, "x3": 1, "y1": 1, "y2": 2, "p": [HUGE, 0]},
         2, "ParseError:"),
        ("compare", {"halfplanes": [[1, 0, HUGE]], "vertices": [[0, 0]], "empty": False},
         2, "ParseError:"),
        ("fm", {"variables": ["R1", "R2"], "inequalities": [[1, 0, HUGE]]},
         2, "ParseError:"),
    ],
)
def test_huge_json_integers_are_domain_errors(tmp_path, command, doc, code, error):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    extra = {"classify": [], "compare": [path], "fm": ["--keep", "R1,R2"]}[command]
    proc = run_cli(command, path, *extra)
    assert proc.returncode == code
    assert proc.stderr.startswith(error)
    assert "too large" in proc.stderr and "non-numeric" not in proc.stderr
    assert "Traceback" not in proc.stderr
