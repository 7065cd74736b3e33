import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import child_env
import zerosheet.zpoly
from zerosheet import (
    ROOT_TOL,
    SearchConfig,
    __version__,
    load_csv,
    load_matrix_csv,
    search_image,
)
from zerosheet.cli import (
    _SEARCH_DEFAULTS,
    EXIT_ERROR,
    EXIT_NO_BLUR,
    EXIT_OK,
    EXIT_PARTIAL,
    build_parser,
    main,
    write_json,
)


def read_report(path):
    return json.loads(path.read_text())


def canonical_report_text(path):
    """Report text with the timing lines removed."""
    lines = [ln for ln in path.read_text().splitlines() if "wall_time_ms" not in ln]
    return "\n".join(lines)


def synth_args(out, sizes="2x2", width=12, height=12, seed=5):
    return [
        "synth", "--output", str(out), "--width", str(width), "--height", str(height),
        "--seed", str(seed), "--sizes", sizes,
    ]


class TestSynth:
    def test_outputs_and_sizes(self, tmp_path, capsys):
        assert main(synth_args(tmp_path)) == EXIT_OK
        out = capsys.readouterr().out
        assert "true 12x12" in out and "convolved 13x13" in out
        for name in ("true.pgm", "true.csv", "blur_1.csv", "convolved.pgm", "convolved.csv"):
            assert (tmp_path / name).exists()
        blur = load_matrix_csv(tmp_path / "blur_1.csv")
        assert blur.shape == (2, 2)

    def test_three_blur_sizes(self, tmp_path, capsys):
        assert main(synth_args(tmp_path, sizes="2x2,2x3,3x3", width=40, height=40)) == EXIT_OK
        assert "convolved 44x45" in capsys.readouterr().out
        img = load_csv(tmp_path / "convolved.csv")
        assert (img.width, img.height) == (44, 45)

    def test_no_blurs_output_equals_truth(self, tmp_path):
        args = ["synth", "--output", str(tmp_path), "--width", "9", "--height", "9",
                "--seed", "3"]
        assert main(args) == EXIT_OK
        t = load_csv(tmp_path / "true.csv")
        c = load_csv(tmp_path / "convolved.csv")
        assert np.array_equal(t.pixels, c.pixels)

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(synth_args(a))
        main(synth_args(b))
        for name in ("true.pgm", "true.csv", "blur_1.csv", "convolved.pgm", "convolved.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestSearch:
    def test_found(self, tmp_path):
        main(synth_args(tmp_path / "data", width=14, height=14))
        out = tmp_path / "run"
        rc = main(["search", "--input", str(tmp_path / "data" / "convolved.csv"),
                   "--blur", "2x2", "--output", str(out)])
        assert rc == EXIT_OK
        rep = read_report(out / "report.json")
        assert rep["status"] == "OK" and rep["report_version"] == 1
        assert rep["tool_version"] == __version__
        stage = rep["per_stage"][0]
        assert stage["blur_size"] == [2, 2] and stage["q"] == 4
        assert stage["sigma_gap"] <= 1e-6
        assert (out / "blur.csv").exists()

    def test_blur_free_exit_code(self, tmp_path):
        main(["synth", "--output", str(tmp_path / "d"), "--width", "14", "--height", "14",
              "--seed", "23"])
        rc = main(["search", "--input", str(tmp_path / "d" / "true.csv"),
                   "--blur", "2x2", "--output", str(tmp_path / "r")])
        assert rc == EXIT_NO_BLUR
        rep = read_report(tmp_path / "r" / "report.json")
        assert rep["status"] == "NO_BLUR_FOUND"
        assert rep["per_stage"][0]["accepted_combination"] is None

    @pytest.mark.parametrize("width,height,n_prime", [(8, 1, 0), (1, 8, 7)])
    def test_one_row_or_column_image_finds_no_blur(self, tmp_path, width, height, n_prime):
        main(["synth", "--output", str(tmp_path / "d"), "--width", str(width),
              "--height", str(height), "--seed", "3"])
        rc = main(["search", "--input", str(tmp_path / "d" / "true.csv"),
                   "--blur", "2x2", "--output", str(tmp_path / "r")])
        assert rc == EXIT_NO_BLUR
        rep = read_report(tmp_path / "r" / "report.json")
        assert rep["status"] == "NO_BLUR_FOUND"
        assert rep["per_stage"][0]["n_prime"] == n_prime

    def test_malformed_pgm(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\nbroken")
        rc = main(["search", "--input", str(bad), "--blur", "2x2",
                   "--output", str(tmp_path / "o")])
        assert rc == EXIT_ERROR

    def test_report_determinism(self, tmp_path):
        main(synth_args(tmp_path / "d", width=14, height=14))
        inp = str(tmp_path / "d" / "convolved.csv")
        texts = []
        for i in range(3):
            out = tmp_path / f"r{i}"
            rc = main(["search", "--input", inp, "--blur", "2x2",
                       "--output", str(out)])
            assert rc == EXIT_OK
            texts.append(canonical_report_text(out / "report.json"))
        assert texts[0] == texts[1] == texts[2]

    def test_report_values_are_loss_free(self, tmp_path):
        main(synth_args(tmp_path / "d", width=14, height=14))
        inp = tmp_path / "d" / "convolved.csv"
        out = tmp_path / "r"
        assert main(["search", "--input", str(inp), "--blur", "2x2", "--output", str(out)]) == EXIT_OK
        stage = read_report(out / "report.json")["per_stage"][0]
        best = search_image(load_csv(inp), SearchConfig(blur_m=2, blur_n=2)).best
        assert stage["sigma_gap"] == best.sigma_gap
        assert stage["sigma_min"] == best.sigma_min
        assert stage["realness"] == best.realness
        assert stage["blur_matrix"] == best.h.tolist()


class TestDeblur:
    def test_round_trip_files(self, tmp_path):
        main(synth_args(tmp_path / "d", width=14, height=14))
        out = tmp_path / "r"
        rc = main(["deblur", "--input", str(tmp_path / "d" / "convolved.csv"),
                   "--blur", "2x2", "--output", str(out)])
        assert rc == EXIT_OK
        rep = read_report(out / "report.json")
        stage = rep["per_stage"][0]
        assert stage["restored_size"] == [14, 14]
        assert stage["forward_residual"] <= 1e-8
        restored = load_csv(out / "restored.csv")
        assert (restored.width, restored.height) == (14, 14)
        assert (out / "restored.pgm").exists() and (out / "blur.csv").exists()

    def test_no_blur_exit(self, tmp_path):
        main(["synth", "--output", str(tmp_path / "d"), "--width", "12", "--height", "12",
              "--seed", "29"])
        rc = main(["deblur", "--input", str(tmp_path / "d" / "true.csv"),
                   "--blur", "2x2", "--output", str(tmp_path / "r")])
        assert rc == EXIT_NO_BLUR
        assert read_report(tmp_path / "r" / "report.json")["status"] == "NO_BLUR_FOUND"

    def test_axis_u_column_blur(self, tmp_path):
        from zerosheet import convolve, save_csv, synth_blur, synth_image

        f = synth_image(13, 13, 4)
        g = convolve(f, synth_blur(3, 1, 55))
        save_csv(g, tmp_path / "g.csv")
        rc = main(["deblur", "--input", str(tmp_path / "g.csv"), "--blur", "3x1",
                   "--phase-step", "0.25", "--output", str(tmp_path / "r")])
        assert rc == EXIT_OK
        rep = read_report(tmp_path / "r" / "report.json")
        assert rep["per_stage"][0]["axis"] == "u"
        assert rep["per_stage"][0]["restored_size"] == [13, 13]


class TestDimBottomRow:
    """A dim bottom row gives slice roots whose |z|^127 overflows."""

    @pytest.fixture
    def observed(self, tmp_path):
        from zerosheet import Image, convolve, save_csv, synth_blur, synth_image

        pixels = synth_image(127, 127, 12).pixels.copy()
        pixels[-1] *= 1e-3
        h = synth_blur(2, 2, 1012)
        save_csv(convolve(Image(pixels), h), tmp_path / "g.csv")
        return tmp_path / "g.csv", h

    def test_deblur_finds_the_kernel(self, tmp_path, observed):
        inp, h = observed
        rc = main(["deblur", "--input", str(inp), "--blur", "2x2", "--phase-step", "0.32",
                   "--output", str(tmp_path / "r")])
        assert rc == EXIT_OK
        # blur.csv holds the (m, n) matrix [x, y] with unit sum
        found = load_matrix_csv(tmp_path / "r" / "blur.csv")
        assert np.abs(found - h.pixels.T / h.pixels.sum()).max() <= 1e-9

    def test_roots_meet_the_bound(self, tmp_path, observed):
        rc = main(["roots", "--input", str(observed[0]), "--phase-step", "0.32",
                   "--points", "8", "--output", str(tmp_path / "r")])
        assert rc == EXIT_OK
        points = read_report(tmp_path / "r" / "report.json")["points"]
        assert len(points) == 8 and all(p["n_prime"] == 127 for p in points)
        assert all(r["residual"] <= ROOT_TOL for p in points for r in p["roots"])


class TestMaxval:
    @pytest.mark.parametrize(
        "args",
        [
            ["deblur", "--blur", "2x2", "--maxval", "0"],
            ["deblur", "--blur", "2x2", "--maxval", "70000"],
            ["pipeline", "--sizes", "2x2", "--maxval", "0"],
            ["synth", "--maxval", "0"],
        ],
        ids=["deblur-0", "deblur-70000", "pipeline-0", "synth-0"],
    )
    def test_rejected_before_any_search(self, tmp_path, capsys, args):
        main(synth_args(tmp_path / "d"))
        out = tmp_path / "r"
        if args[0] != "synth":
            args = args + ["--input", str(tmp_path / "d" / "convolved.csv")]
        assert main(args + ["--output", str(out)]) == EXIT_ERROR
        assert re.search(r"^error: maxval ", capsys.readouterr().err, re.MULTILINE)
        assert not list(out.glob("*"))  # no kernel CSV, image or report


class TestPipeline:
    def test_two_stage(self, tmp_path):
        main(synth_args(tmp_path / "d", sizes="2x2,2x3", width=14, height=14, seed=12))
        out = tmp_path / "r"
        rc = main(["pipeline", "--input", str(tmp_path / "d" / "convolved.csv"),
                   "--sizes", "2x2,2x3", "--output", str(out), "--phase-step", "0.3"])
        assert rc == EXIT_OK
        rep = read_report(out / "report.json")
        assert rep["status"] == "OK"
        assert [s["restored_size"] for s in rep["per_stage"]] == [[15, 16], [14, 14]]
        for i in (1, 2):
            assert (out / f"restored_{i}.csv").exists()
            assert (out / f"blur_{i}.csv").exists()

    def test_partial_keeps_stage_one_outputs(self, tmp_path):
        main(synth_args(tmp_path / "d", sizes="2x2", width=12, height=12, seed=3))
        out = tmp_path / "r"
        rc = main(["pipeline", "--input", str(tmp_path / "d" / "convolved.csv"),
                   "--sizes", "2x2,3x4", "--output", str(out), "--phase-step", "0.3"])
        assert rc == EXIT_PARTIAL
        rep = read_report(out / "report.json")
        assert rep["status"] == "PARTIAL"
        assert (out / "restored_1.csv").exists()
        assert not (out / "restored_2.csv").exists()
        assert len(rep["per_stage"]) == 2
        assert rep["per_stage"][1]["accepted_combination"] is None

    @pytest.mark.parametrize(
        "first, sizes, axes",
        [("v", "1x3,3x1,3x2", ["v", "u", "u"]), ("u", "3x1,1x3,2x3", ["u", "v", "v"])],
        ids=["v", "u"],
    )
    def test_axis_per_stage(self, tmp_path, first, sizes, axes):
        # each stage searches along its blur's longer side, v for 1 x n and
        # 2 x 3, u for m x 1 and 3 x 2, whichever axis the first stage took
        main(synth_args(tmp_path / "d", sizes=sizes, width=20, height=20, seed=7))
        out = tmp_path / "r"
        rc = main(["pipeline", "--input", str(tmp_path / "d" / "convolved.csv"),
                   "--sizes", sizes, "--phase-step", "0.32", "--output", str(out)])
        assert rc == EXIT_OK
        rep = read_report(out / "report.json")
        assert "axis" not in rep["config_echo"]
        assert [s["axis"] for s in rep["per_stage"]] == axes
        assert axes[0] == first
        for i in (1, 2, 3):
            truth = load_matrix_csv(tmp_path / "d" / f"blur_{i}.csv")
            found = load_matrix_csv(out / f"blur_{i}.csv")
            assert np.abs(found - truth / truth.sum()).max() <= 1e-12

    def test_failure_at_first_stage_is_no_blur_found(self, tmp_path):
        main(["synth", "--output", str(tmp_path / "d"), "--width", "12", "--height", "12",
              "--seed", "31"])
        rc = main(["pipeline", "--input", str(tmp_path / "d" / "true.csv"),
                   "--sizes", "2x2", "--output", str(tmp_path / "r")])
        assert rc == EXIT_NO_BLUR

    @pytest.mark.parametrize("found", [True, False], ids=["found", "not-found"])
    def test_one_size_equals_deblur(self, tmp_path, found):
        # deblur is a one-stage pipeline whose files carry no stage number
        main(synth_args(tmp_path / "d", width=14, height=14, seed=23))
        inp = str(tmp_path / "d" / ("convolved.csv" if found else "true.csv"))
        a, b = tmp_path / "deblur", tmp_path / "pipeline"
        rc_a = main(["deblur", "--input", inp, "--blur", "2x2", "--output", str(a)])
        rc_b = main(["pipeline", "--input", inp, "--sizes", "2x2", "--output", str(b)])
        assert rc_a == rc_b == (EXIT_OK if found else EXIT_NO_BLUR)

        def text(path):
            return [ln for ln in canonical_report_text(path).splitlines()
                    if '"command":' not in ln]

        assert text(a / "report.json") == text(b / "report.json")
        for name, numbered in [("blur.csv", "blur_1.csv"), ("restored.csv", "restored_1.csv"),
                               ("restored.pgm", "restored_1.pgm")]:
            assert (a / name).exists() == (b / numbered).exists() == found
            if found:
                assert (a / name).read_bytes() == (b / numbered).read_bytes()


class TestReusedOutputDir:
    def test_miss_removes_files_of_stages_not_completed(self, tmp_path):
        # a run that misses removes exactly the files that a successful run
        # of the same command would have written for its missing stages
        main(synth_args(tmp_path / "one", sizes="2x2", width=12, height=12, seed=3))
        main(synth_args(tmp_path / "two", sizes="2x2,2x3", width=14, height=14, seed=12))
        one, two = tmp_path / "one" / "convolved.csv", tmp_path / "two" / "convolved.csv"
        free = tmp_path / "one" / "true.csv"
        out = tmp_path / "r"

        def run(*args):
            return main([*args, "--phase-step", "0.3", "--output", str(out)])

        def files():
            return sorted(p.name for p in out.iterdir())

        assert run("deblur", "--input", str(one), "--blur", "2x2") == EXIT_OK
        assert run("pipeline", "--input", str(two), "--sizes", "2x2,2x3") == EXIT_OK
        (out / "notes.txt").write_text("not ours\n")
        stage_files = ["blur_1.csv", "blur_2.csv", "restored_1.csv", "restored_1.pgm",
                       "restored_2.csv", "restored_2.pgm"]
        assert files() == sorted(["blur.csv", "restored.csv", "restored.pgm", "notes.txt",
                                  "report.json", *stage_files])

        assert run("search", "--input", str(free), "--blur", "2x2") == EXIT_NO_BLUR
        assert files() == sorted(["restored.csv", "restored.pgm", "notes.txt", "report.json",
                                  *stage_files])

        assert run("deblur", "--input", str(free), "--blur", "2x2") == EXIT_NO_BLUR
        assert files() == sorted(["notes.txt", "report.json", *stage_files])

        assert run("pipeline", "--input", str(one), "--sizes", "2x2,3x4") == EXIT_PARTIAL
        assert read_report(out / "report.json")["status"] == "PARTIAL"
        assert files() == sorted(["notes.txt", "report.json", "blur_1.csv", "restored_1.csv",
                                  "restored_1.pgm"])

    def test_shorter_pipeline_removes_later_stages(self, tmp_path):
        # a successful pipeline leaves no stage file past its last stage
        main(synth_args(tmp_path / "d", sizes="2x2,2x3", width=14, height=14, seed=12))
        inp, out = tmp_path / "d" / "convolved.csv", tmp_path / "r"

        def run(sizes):
            return main(["pipeline", "--input", str(inp), "--sizes", sizes,
                         "--phase-step", "0.3", "--output", str(out)])

        assert run("2x2,2x3") == EXIT_OK
        (out / "blur_2.txt").write_text("not ours\n")
        assert run("2x2") == EXIT_OK
        assert read_report(out / "report.json")["status"] == "OK"
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["blur_1.csv", "restored_1.csv", "restored_1.pgm", "report.json", "blur_2.txt"])


class TestRoots:
    def test_dump_valid_json(self, tmp_path):
        main(synth_args(tmp_path / "d", sizes="2x2,2x3,3x3", width=40, height=40, seed=12))
        out = tmp_path / "r"
        rc = main(["roots", "--input", str(tmp_path / "d" / "convolved.csv"),
                   "--output", str(out), "--points", "2"])
        assert rc == EXIT_OK
        rep = read_report(out / "report.json")
        assert rep["report_version"] == 2
        assert len(rep["points"]) == 2
        point = rep["points"][0]
        assert point["n_prime"] == 44
        assert len(point["roots"]) == 44
        # every reported relative residual meets the bound the solver promises
        assert all(0 <= r["residual"] <= ROOT_TOL for p in rep["points"] for r in p["roots"])

    def test_degenerate_point_flagged(self, tmp_path):
        from zerosheet import Image, convolve, save_csv, synth_image

        g = convolve(synth_image(8, 8, 2), Image([[1.0, 1.0], [1.0, 1.0]]))
        save_csv(g, tmp_path / "g.csv")
        rc = main(["roots", "--input", str(tmp_path / "g.csv"), "--output", str(tmp_path / "r"),
                   "--base-phase", str(np.pi), "--points", "1"])
        assert rc == EXIT_OK
        rep = read_report(tmp_path / "r" / "report.json")
        assert rep["points"][0]["degenerate"] is True

    def test_one_row_image_has_no_roots(self, tmp_path):
        inp = tmp_path / "row.csv"
        inp.write_text("1,2,3,4\n")
        out = tmp_path / "r"
        rc = main(["roots", "--input", str(inp), "--output", str(out), "--points", "2"])
        assert rc == EXIT_OK
        points = read_report(out / "report.json")["points"]
        assert [(p["degenerate"], p["n_prime"], p["roots"]) for p in points] == [
            (False, 0, []), (False, 0, [])
        ]

    def test_each_point_sliced_once(self, tmp_path, monkeypatch):
        main(synth_args(tmp_path / "d", width=10, height=10))
        calls = []
        real = zerosheet.zpoly.slice_in_v

        def counting(P, u, *args):
            calls.append(u)
            return real(P, u, *args)

        # count calls the command makes itself as well as those inside slice_roots
        monkeypatch.setattr(zerosheet.zpoly, "slice_in_v", counting)
        monkeypatch.setattr(zerosheet.cli, "slice_in_v", counting, raising=False)
        rc = main(["roots", "--input", str(tmp_path / "d" / "convolved.csv"),
                   "--output", str(tmp_path / "r"), "--points", "4"])
        assert rc == EXIT_OK
        assert len(calls) == 4

    def test_non_ascii_input_path(self, tmp_path):
        main(synth_args(tmp_path / "d", width=8, height=8))
        inp = tmp_path / "ü.csv"
        inp.write_bytes((tmp_path / "d" / "convolved.csv").read_bytes())
        out = tmp_path / "r"
        assert main(["roots", "--input", str(inp), "--output", str(out)]) == EXIT_OK
        assert read_report(out / "report.json")["input"] == str(inp)


class TestConfigPrecedence:
    def test_flags_over_file_over_defaults(self, tmp_path):
        main(synth_args(tmp_path / "d", width=12, height=12))
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("phase_step = 0.02\ntol_null = 1e-7\n# comment\n")
        out1 = tmp_path / "r1"
        rc = main(["search", "--input", str(tmp_path / "d" / "convolved.csv"),
                   "--blur", "2x2", "--output", str(out1), "--config", str(cfg)])
        assert rc == EXIT_OK
        rep1 = read_report(out1 / "report.json")
        assert rep1["config_echo"]["phase_step"] == 0.02
        assert rep1["config_echo"]["tol_null"] == 1e-7

        out2 = tmp_path / "r2"
        rc = main(["search", "--input", str(tmp_path / "d" / "convolved.csv"),
                   "--blur", "2x2", "--output", str(out2), "--config", str(cfg),
                   "--phase-step", "0.03"])
        assert rc == EXIT_OK
        rep2 = read_report(out2 / "report.json")
        assert rep2["config_echo"]["phase_step"] == 0.03
        assert rep2["config_echo"]["tol_null"] == 1e-7

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("no_such_key = 1\n")
        rc = main(["search", "--input", "missing.pgm", "--blur", "2x2",
                   "--output", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == EXIT_ERROR

    def test_threads_is_neither_key_nor_flag(self, tmp_path, capsys):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("threads = 2\n")
        rc = main(["search", "--input", "missing.pgm", "--blur", "2x2",
                   "--output", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == EXIT_ERROR
        assert "unknown config key 'threads'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["search", "--input", "missing.pgm", "--blur", "2x2", "--threads", "2"])
        assert exc.value.code == 2

    def test_consecutive_commands_parse_only_their_own_flags(self, tmp_path, monkeypatch):
        # one parser serves every main call in a process, so nothing that one
        # call parsed may reach the next
        assert build_parser() is build_parser()
        main(synth_args(tmp_path / "d", width=14, height=14))
        inp = str(tmp_path / "d" / "convolved.csv")
        parsed = []
        resolve = zerosheet.cli._resolve
        monkeypatch.setattr(
            zerosheet.cli, "_resolve", lambda ns: parsed.append(vars(ns).copy()) or resolve(ns)
        )
        runs = {
            "deblur": ["--blur", "2x2", "--tol-null", "1e-7", "--maxval", "1000"],
            "pipeline": ["--sizes", "2x2"],
            "roots": ["--points", "2"],
        }
        for command, flags in runs.items():
            argv = [command, "--input", inp, "--output", str(tmp_path / command), *flags]
            assert main(argv) == EXIT_OK
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        given = {
            "deblur": {"blur": (2, 2), "tol_null": 1e-7, "maxval": 1000},
            "pipeline": {"sizes": [(2, 2)]},
            "roots": {"points": 2},
        }
        for (command, own), ns in zip(given.items(), parsed):
            dests = {a.dest for a in sub.choices[command]._actions if a.dest != "help"}
            assert set(ns) == dests | {"command", "func"}
            values = {k: v for k, v in ns.items() if v is not None and k not in ("command", "func")}
            assert values == {"input": inp, "output": str(tmp_path / command), **own}

    @pytest.mark.parametrize("command", ["search", "deblur", "pipeline"])
    def test_one_flag_per_search_knob(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        own = {"help", "input", "blur", "sizes", "maxval", "output", "report", "config"}
        dests = [a.dest for a in sub.choices[command]._actions
                 if a.option_strings and a.dest not in own]
        assert sorted(dests) == sorted(_SEARCH_DEFAULTS)


class TestReadme:
    def test_common_flags_match_search_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("Common flags:") : readme.index("Exit codes:")]
        named = set(re.findall(r"`(--[a-z][a-z-]*)", paragraph))
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {opt for a in sub.choices["search"]._actions for opt in a.option_strings
                 if opt.startswith("--")}
        assert named == flags - {"--input", "--blur", "--help"}


class TestErrorExit:
    @pytest.mark.parametrize(
        "args, message",
        [
            (["search", "--blur", "2x2", "--phase-step", "1"], "phase_step must lie in"),
            (["search", "--blur", "2x2", "--tol-null", "2"], "tol_null must lie in"),
            (["search", "--blur", "2x2", "--max-combinations", "0"], "max_combinations must be"),
            (["synth", "--width", "0"], "dimensions must be >= 1"),
            (["search", "--blur", "2x2", "--input", "{nan}"], "line 2: non-finite entry"),
            (["deblur", "--blur", "2x2", "--input", "{inf}"], "line 3: non-finite entry"),
            (["pipeline", "--sizes", ","], "pipeline needs at least one blur size"),
            (["roots", "--points", "0"], "points must be >= 1"),
            (["roots", "--points", "-2"], "points must be >= 1"),
            (["roots", "--points", "3", "--phase-step", "1e308"], "phase of point 3 is not finite"),
        ],
        ids=["phase-step", "tol-null", "max-combinations", "synth-width", "csv-nan", "csv-inf",
             "pipeline-no-sizes", "roots-points-0", "roots-points-neg", "roots-phase-inf"],
    )
    def test_value_errors_exit_with_message(self, tmp_path, capsys, args, message):
        (tmp_path / "nan.csv").write_text("1,2,3\n4,nan,6\n7,8,9\n")
        (tmp_path / "inf.csv").write_text("1,2,3\n4,5,6\n-inf,8,9\n")
        (tmp_path / "ok.csv").write_text("1,2,3\n4,5,6\n7,8,9\n")
        args = [a.format(nan=tmp_path / "nan.csv", inf=tmp_path / "inf.csv") for a in args]
        if args[0] != "synth" and "--input" not in args:
            args += ["--input", str(tmp_path / "ok.csv")]
        rc = main(args + ["--output", str(tmp_path / "out")])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert re.search(rf"^error: .*{message}", err, re.MULTILINE), err

    @pytest.mark.parametrize(
        "flag, key, line",
        [
            # the search axis follows from the blur size and cannot be set
            (["--axis", "u"], "axis", "axis = u"),
            # the search ends only after the level that accepts
            (["--early-stop"], "early_stop", "early_stop = true"),
        ],
        ids=["axis", "early_stop"],
    )
    def test_axis_is_neither_flag_nor_key(self, tmp_path, capsys, flag, key, line):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--input", "missing.pgm", "--blur", "2x2", *flag])
        assert exc.value.code == 2
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(line + "\n")
        rc = main(["search", "--input", "missing.pgm", "--blur", "2x2",
                   "--output", str(tmp_path / "r"), "--config", str(cfg)])
        assert rc == EXIT_ERROR
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_non_finite_report_value_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_json({"x": float("nan")}, tmp_path / "r.json")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zerosheet", "--version"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_log_env_var(self, tmp_path):
        def synth(level):
            return subprocess.run(
                [sys.executable, "-m", "zerosheet", "synth", "--output", str(tmp_path / level),
                 "--width", "6", "--height", "6", "--seed", "1"],
                capture_output=True, text=True, env=child_env(ZEROSHEET_LOG=level),
            )

        proc = synth("debug")
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^DEBUG zerosheet\.cli: .*\bsynth\b", proc.stderr, re.MULTILINE), proc.stderr

        proc = synth("off")
        assert proc.returncode == 0, proc.stderr
        assert not re.search(r"^[A-Z]+ zerosheet\.", proc.stderr, re.MULTILINE), proc.stderr

    def test_log_level_follows_each_main_call(self, tmp_path):
        # one interpreter, three main() calls: info, then debug twice; each
        # call takes the level it sees, and the handler is never doubled
        script = (
            "import os, sys\n"
            "from zerosheet.cli import main\n"
            "for i, level in enumerate(('info', 'debug', 'debug')):\n"
            "    os.environ['ZEROSHEET_LOG'] = level\n"
            "    args = ['synth', '--output', os.path.join(sys.argv[1], str(i)),\n"
            "            '--width', '6', '--height', '6', '--seed', '1']\n"
            "    assert main(args) == 0\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, env=child_env(ZEROSHEET_LOG="off"),
        )
        assert proc.returncode == 0, proc.stderr
        debug_lines = re.findall(r"^DEBUG zerosheet\.cli: .*\bsynth\b", proc.stderr, re.MULTILINE)
        assert len(debug_lines) == 2, proc.stderr
