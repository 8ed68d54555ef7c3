"""Command-line interface, exercised in-process through main()."""

import csv
import json
import os
import re
import shlex

import numpy as np
import pytest

from semcom import harness, scenegen
from semcom.cli import build_parser, main

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")


def readme_commands() -> list[str]:
    """Every ``semcom ...`` line inside README's fenced code blocks."""
    with open(README) as f:
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", f.read(), re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("semcom ")]


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if a trial starts."""
    def no_trial(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(harness, "draw_trial", no_trial)


def assert_one_error_line(capsys, start):
    captured = capsys.readouterr()
    assert captured.err.startswith(start) and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    build_parser().parse_args(shlex.split(line, comments=True)[1:])


@pytest.mark.parametrize("command", [
    ["simulate", "--trials", "1"],
    ["sweep-snr", "--trials", "1"],
    ["sweep-rate", "--trials", "1"],
    ["render-dataset", "--per-concept", "1"],
    ["funcomp", "rate-search", "--tau", "0.002", "--trials", "1"],
], ids=["simulate", "sweep-snr", "sweep-rate", "render-dataset", "rate-search"])
def test_negative_seed_refused(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where render-dataset would write
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error: argument --seed: seed must be at least 0" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["simulate", "--snr-db", "abc"],
    ["sweep-snr", "--snr-db", "10,x"],
    ["funcomp", "rate-search", "--tau", "0.002", "--snr", "x"],
    ["funcomp", "rate-search", "--tau", "0.002", "--seed", "x"],
    ["simulate", "--seed", "1.5"],
], ids=["simulate-snr", "sweep-snr-list", "rate-search-snr", "rate-search-seed",
        "simulate-seed"])
def test_malformed_value_error_names_the_expected_value(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err and "expected " in err
    assert not re.search(r"\b_\w", err)  # no private function name


class TestPrototypes:
    def test_prints_table(self, capsys):
        assert main(["prototypes"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("label,r,h,s,b\n")
        assert "yellow-square,1.414214" in out

    def test_writes_file(self, tmp_path, capsys):
        path = str(tmp_path / "protos.csv")
        assert main(["prototypes", "--out", path]) == 0
        assert os.path.exists(path)


class TestSimulate:
    def test_noiseless_smoke(self, capsys):
        code = main(["simulate", "--trials", "10", "--seed", "3",
                     "--snr-db", "30", "--workers", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p_semantic=" in out and "trials=10" in out


    @pytest.mark.parametrize("snr_db", ["nan", "1e6"])
    def test_refuses_a_bad_snr_before_any_trial(self, snr_db, no_trials, capsys):
        code = main(["simulate", "--trials", "5", "--snr-db", snr_db])
        assert code == 1
        assert_one_error_line(capsys, f"error: snr_db={float(snr_db)}")

    def test_rejects_fewer_than_one_worker(self, capsys):
        for workers in ("0", "-3"):
            code = main(["simulate", "--trials", "2", "--workers", workers])
            assert code != 0
            err = capsys.readouterr().err
            assert err.startswith("error:") and "workers" in err

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_extreme_snr_fails_cleanly(self, snr_db, capsys):
        code = main(["simulate", "--trials", "2", "--snr-db", snr_db])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("option", [["--out", "x.csv"], ["--plot-data"]])
    def test_rejects_output_options(self, option, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--trials", "2", *option])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rejects_more_than_one_snr(self, capsys):
        code = main(["simulate", "--trials", "2", "--snr-db", "0,30"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_default_snr_prints_as_the_given_one(self, capsys):
        outs = []
        for snr in ([], ["--snr-db", "0"]):
            assert main(["simulate", "--trials", "3", "--seed", "3", *snr]) == 0
            outs.append(capsys.readouterr().out)
        assert "snr_db=0.0 " in outs[0]
        assert outs[0] == outs[1]

    def test_noiseless_channel(self, capsys):
        code = main(["simulate", "--trials", "5", "--seed", "3",
                     "--snr-db", "none"])
        assert code == 0
        out = capsys.readouterr().out
        assert "snr_db=None" in out and "p_syntactic=0 " in out


class TestSweeps:
    def test_sweep_snr_csv(self, tmp_path, capsys):
        path = str(tmp_path / "sweep.csv")
        code = main(["sweep-snr", "--trials", "8", "--seed", "1",
                     "--snr-db", "0,30", "--out", path])
        assert code == 0
        with open(path) as f:
            lines = f.read().strip().split("\n")
        assert lines[0] == harness.SNR_SWEEP_HEADER
        assert len(lines) == 3
        assert os.path.exists(path + ".manifest.json")

    def test_sweep_snr_stdout(self, capsys):
        code = main(["sweep-snr", "--trials", "5", "--seed", "1",
                     "--snr-db", "30"])
        assert code == 0
        assert capsys.readouterr().out.startswith(harness.SNR_SWEEP_HEADER)

    def test_sweep_snr_plot_data_to_stdout(self, tmp_path, capsys):
        args = ["sweep-snr", "--trials", "3", "--seed", "1", "--snr-db", "10,none",
                "--plot-data"]
        path = tmp_path / "sweep.dat"
        assert main(args + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("# snr_db p_syntactic ")
        assert out == path.read_text()

    def test_sweep_snr_refuses_a_bad_snr_before_any_trial(self, no_trials, capsys):
        code = main(["sweep-snr", "--trials", "5", "--snr-db", "0,nan"])
        assert code == 1
        assert_one_error_line(capsys, "error: snr_db=nan")

    def test_sweep_snr_noiseless_point(self, capsys):
        code = main(["sweep-snr", "--trials", "5", "--seed", "1",
                     "--snr-db", "15,none"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [line.split(",")[0] for line in lines[1:]] == ["15", "None"]
        assert lines[2].split(",")[1:3] == ["0", "0"]  # no bit errors

    @pytest.mark.parametrize("option", [["--nb", "2"], ["--snr-db", "5"],
                                        ["--system", "traditional"]])
    def test_sweep_rate_rejects_link_options(self, option, capsys):
        with pytest.raises(SystemExit):
            main(["sweep-rate", "--trials", "2", *option])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_rate_manifest_records_only_what_it_read(self, tmp_path, capsys):
        path = str(tmp_path / "rate.csv")
        assert main(["sweep-rate", "--trials", "2", "--seed", "1", "--out", path]) == 0
        with open(path + ".manifest.json") as f:
            config = json.load(f)["config"]
        assert not {"nb", "snr_db", "system"} & set(config)
        assert config["trials"] == 2 and config["seed"] == 1

    def test_sweep_rate_plot_data_to_stdout(self, capsys):
        assert main(["sweep-rate", "--trials", "1", "--seed", "1", "--plot-data"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# " + harness.RATE_SWEEP_HEADER.replace(",", " ")
        assert all("," not in line for line in lines[1:-1])
        assert lines[-1].startswith("rate reduction: ")

    def test_sweep_rate_reports_reduction(self, tmp_path, capsys):
        path = str(tmp_path / "rate.csv")
        code = main(["sweep-rate", "--trials", "3", "--seed", "1",
                     "--out", path])
        assert code == 0
        assert "99.79%" in capsys.readouterr().out
        with open(path) as f:
            assert f.readline().strip() == harness.RATE_SWEEP_HEADER


class TestInspect:
    def test_roundtrip_via_ppm(self, tmp_path, capsys, rng):
        spec = scenegen.sample_spec("red-triangle", rng)
        img = scenegen.render(spec, rng)
        path = str(tmp_path / "scene.ppm")
        scenegen.write_ppm(img, path)
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "decoded concept: red-triangle" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        code = main(["inspect", str(tmp_path / "nope.ppm")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_truncated_ppm_fails_cleanly(self, tmp_path, capsys, rng):
        img = scenegen.render(scenegen.sample_spec("red-circle", rng), rng)
        path = str(tmp_path / "scene.ppm")
        scenegen.write_ppm(img, path)
        with open(path, "rb") as f:
            raw = f.read()
        for cut in (raw[:5], raw[:-10]):
            with open(path, "wb") as f:
                f.write(cut)
            assert main(["inspect", path]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1

    def test_thin_bar_is_refused_by_the_sector_check(self, tmp_path, capsys):
        img = np.full((25, 25, 3), 0.5)
        img[12, 2:23] = (1.0, 0.0, 0.0)  # a one-pixel-high bar
        path = str(tmp_path / "bar.ppm")
        scenegen.write_ppm(img, path)
        assert main(["inspect", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "populated boundary sectors" in err

    def test_non_square_image(self, tmp_path, capsys, rng):
        img = np.full((30, 40, 3), 0.5)
        spec = scenegen.sample_spec("red-triangle", rng)
        img[2:27, 5:30] = scenegen.render(spec, rng)
        path = str(tmp_path / "wide.ppm")
        scenegen.write_ppm(img, path)
        assert main(["inspect", path]) == 0
        assert "decoded concept: red-triangle" in capsys.readouterr().out


class TestRenderDataset:
    def test_writes_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "ds")
        code = main(["render-dataset", "--per-concept", "1", "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "labels.csv"))

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_rejects_count_below_one_writing_nothing(self, count, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main(["render-dataset", "--per-concept", count, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_empty_out_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["render-dataset", "--per-concept", "1", "--out", ""])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # not ./dataset/ either


class TestFuncomp:
    def test_classes_mod2(self, tmp_path, capsys):
        spec = tmp_path / "fn.csv"
        with open(spec, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["element", "output", "probability"])
            for x in range(4):
                writer.writerow([x, x % 2, ""])
        assert main(["funcomp", "classes", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "{0,2}" in out and "{1,3}" in out
        assert "min_bits=1" in out

    def write_spec(self, tmp_path, rows):
        spec = tmp_path / "fn.csv"
        spec.write_text("\n".join(rows) + "\n")
        return str(spec)

    def assert_one_error_line(self, spec, capsys):
        assert main(["funcomp", "classes", "--spec", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""
        return captured.err

    def test_classes_spec_without_output_column(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, ["element,probability", "a,0.5", "b,0.5"])
        self.assert_one_error_line(spec, capsys)

    def test_classes_probability_for_some_rows_only(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, ["element,output,probability",
                                          "a,0,0.5", "b,1,"])
        self.assert_one_error_line(spec, capsys)

    def test_classes_non_numeric_probability(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, ["element,output,probability",
                                          "a,0,half", "b,1,0.5"])
        self.assert_one_error_line(spec, capsys)

    def test_classes_short_line_and_undecodable_file(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, ["output,element", "0,a", "1"])
        self.assert_one_error_line(spec, capsys)
        # a row that stops before the probability column
        spec = self.write_spec(tmp_path, ["element,output,probability", "a,0", "b,1"])
        assert "line 2 " in self.assert_one_error_line(spec, capsys)
        with open(spec, "wb") as f:
            f.write(b"\xff\xfe\x00element,output\n")
        self.assert_one_error_line(spec, capsys)

    def test_classes_header_only(self, tmp_path, capsys):
        err = self.assert_one_error_line(
            self.write_spec(tmp_path, ["element,output,probability"]), capsys)
        assert "domain is empty" in err

    def test_classes_long_line(self, tmp_path, capsys):
        # a field past the header, such as a probability the header forgot
        for rows, line in ((["element,output", "a,0", "b,1,extra"], 3),
                           (["element,output,probability", "a,0,0.5,0.5", "b,1,0.5"], 2)):
            err = self.assert_one_error_line(self.write_spec(tmp_path, rows), capsys)
            assert f"line {line} " in err

    def test_classes_repeated_element(self, tmp_path, capsys):
        for rows in (["element,output", "a,0", "b,1", "a,1"],
                     ["element,output,probability", "a,0,0.5", "b,1,0.25", "a,1,0.25"]):
            err = self.assert_one_error_line(self.write_spec(tmp_path, rows), capsys)
            assert "repeated" in err and "'a'" in err

    def test_rate_search_noiseless(self, capsys):
        code = main(["funcomp", "rate-search", "--tau", "10.0", "--snr", "none",
                     "--trials", "10"])
        assert code == 0
        assert "minimal_nb=1" in capsys.readouterr().out

    @pytest.mark.parametrize("snr", ["nan", "1e6"])
    def test_rate_search_refuses_a_bad_snr_before_any_trial(self, snr, no_trials,
                                                             capsys):
        code = main(["funcomp", "rate-search", "--tau", "0.1", "--snr", snr,
                     "--trials", "5"])
        assert code == 1
        assert_one_error_line(capsys, f"error: snr_db={float(snr)}")

    def test_rate_search_rejects_bad_tau(self, capsys):
        code = main(["funcomp", "rate-search", "--tau", "-1", "--snr", "none",
                     "--trials", "5"])
        assert code == 1

    def test_rate_search_rejects_nan_tau(self, capsys):
        code = main(["funcomp", "rate-search", "--tau", "nan", "--snr", "none",
                     "--trials", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_rate_search_snr_none_is_the_default(self, capsys):
        args = ["funcomp", "rate-search", "--tau", "0.002", "--trials", "2", "--seed", "5"]
        outs = []
        for extra in ([], ["--snr", "none"], ["--snr", "None"]):
            assert main(args + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert outs[0].startswith("nb,mean_distortion,stderr,feasible\n")

    @pytest.mark.parametrize("extra", [["--snr", "0,30"], ["--noiseless"]])
    def test_rate_search_refuses_snr_list_and_noiseless_flag(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["funcomp", "rate-search", "--tau", "0.002", "--trials", "1"] + extra)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and extra[0] in captured.err
