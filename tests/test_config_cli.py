"""Config parsing, unit conversion, and the command-line interface."""

import csv
import json
import math
import os
import re
import stat
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import sdid
from sdid import (ConfigError, average_survival, config_from_dict,
                  device_from_dict, fit_exponential, load_config,
                  nu_from_4nu_khz)
from sdid.cli import _json, main
from sdid.fitting import MAX_RMS_RESIDUAL

DEVICE_A = {
    "control": {"t2_us": 127.0},
    "spectators": [{"t1_us": 107.0, "zz_4nu_khz": 45.0}],
}

DEVICE_B = {
    "control": {"t1_us": 141.0, "t2_us": 241.0},
    "spectators": [
        {"t1_us": 150.0, "t2_us": 258.0, "zz_4nu_khz": 47.0},
        {"t1_us": 218.0, "t2_us": 400.0, "zz_4nu_khz": 48.0},
        {"t1_us": 122.0, "t2_us": 175.0, "zz_4nu_khz": 41.0},
    ],
}


def _write_config(path, device, **extra):
    data = {"version": "v1", "device": device}
    data.update(extra)
    path.write_text(json.dumps(data))
    return str(path)


def test_unit_conversion():
    assert np.isclose(nu_from_4nu_khz(45.0), 2.0 * math.pi * 11250.0)


def test_device_rates_from_config():
    device = device_from_dict(DEVICE_A)
    assert np.isclose(device.control.gamma_tilde, 1.0 / 127e-6)
    q, nu = device.spectators[0]
    assert np.isclose(q.gamma, 1.0 / 107e-6)
    assert np.isclose(nu, 2.0 * math.pi * 11250.0)


def test_t2_boundary_in_config():
    ok = {"control": {"t1_us": 100.0, "t2_us": 200.0}}
    assert device_from_dict(ok).control.gamma_phi == 0.0
    bad = {"control": {"t1_us": 100.0, "t2_us": 210.0}}
    with pytest.raises(ConfigError,
                       match="field 'device.control': .*T2 exceeds 2\\*T1"):
        device_from_dict(bad)


def test_config_diagnostics_name_the_field():
    with pytest.raises(ConfigError, match="'device' is required"):
        config_from_dict({"version": "v1"})
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"device": DEVICE_A, "bogus": 1})
    with pytest.raises(ConfigError, match="'experiment'"):
        config_from_dict({"device": DEVICE_A, "experiment": "spam"})
    with pytest.raises(ConfigError, match="'frame'"):
        config_from_dict({"device": DEVICE_A, "frame": "lab"})
    with pytest.raises(ConfigError, match="'engines'"):
        config_from_dict({"device": DEVICE_A, "engines": ["exact"]})
    with pytest.raises(ConfigError, match="'points'"):
        config_from_dict({"device": DEVICE_A, "points": -3})
    with pytest.raises(ConfigError, match="'version'"):
        config_from_dict({"device": DEVICE_A, "version": "v0"})
    with pytest.raises(ConfigError, match="zz_4nu_khz"):
        config_from_dict({"device": {"control": {"t2_us": 100.0},
                                     "spectators": [{"t1_us": 100.0}]}})
    control = {"t2_us": 100.0}
    for data, field in (
            ([DEVICE_A], "config root"),
            ({"device": [control]}, "'device' must be an object"),
            ({"device": {"spectators": []}}, "'device.control' is required"),
            ({"device": {"control": 100.0}},
             "'device.control' must be an object"),
            ({"device": {"control": control, "spectators": [45.0]}},
             "'device.spectators[0]' must be an object"),
            ({"device": {"control": {"t3_us": 100.0}}},
             "'device.control' has unknown keys ['t3_us']"),
            *(({"device": {"control": {**control, "label": label}}},
               "'device.control.label' must be a string")
              for label in (["x"], 7, None)),
            ({"device": {"control": control, "spectators": [
                {"t1_us": 107.0, "zz_4nu_khz": 45.0, "label": 7}]}},
             "'device.spectators[0].label' must be a string"),
            *(({"device": DEVICE_A, "tgate_ns": x}, "'tgate_ns'")
              for x in (-5, 0, math.inf)),
            *(({"device": DEVICE_A, "out": x}, "field 'out' must be a path")
              for x in (None, ["a.csv"], 7))):
        with pytest.raises(ConfigError, match=re.escape(field)):
            config_from_dict(data)


def test_spectator_init_is_checked_against_the_experiment():
    for experiment, init in (("ramsey", "plus"), ("ramsey", "11"),
                             ("cpmg", "1a1"), ("rb", "abc"), ("rb", "1101")):
        with pytest.raises(ConfigError, match="'spectator_init'"):
            config_from_dict({"device": DEVICE_B, "experiment": experiment,
                              "spectator_init": init})
    for init in ("zero", "one", "plus", "101"):
        cfg = config_from_dict({"device": DEVICE_B, "experiment": "rb",
                                "spectator_init": init})
        assert cfg.spectator_init == init


@pytest.mark.parametrize("experiment", ["ramsey", "rb", "derive"])
@pytest.mark.parametrize("init", [101, None, True])
def test_spectator_init_must_be_a_json_string(experiment, init):
    # A number is not read as its digits, and null is not the text "None".
    with pytest.raises(ConfigError,
                       match="field 'spectator_init' must be a string"):
        config_from_dict({"device": DEVICE_B, "experiment": experiment,
                          "spectator_init": init})


def test_cli_reports_config_errors_without_traceback(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, spectator_init="plus")
    result = CliRunner().invoke(main, [
        "ramsey", "--config", cfg, "--out", str(tmp_path / "r.csv")])
    assert result.exit_code != 0
    assert "Traceback" not in result.output
    assert "Error: field 'spectator_init'" in result.output
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("command, option, kind", [
    ("ramsey", "--config", "folder"), ("ramsey", "--config", "binary"),
    ("ramsey", "--config", "empty"), ("ramsey", "--config", "missing"),
    ("ramsey", "--config", "text"), ("ramsey", "--out", "folder"),
    ("ramsey", "--out", "missing"), ("fit", "--in", "folder"),
    ("fit", "--in", "binary"), ("fit", "--out", "folder"),
    ("fit", "--out", "missing")])
def test_cli_reports_unusable_paths_in_one_line(tmp_path, command, option,
                                                kind):
    # A path that is not a readable (or writable) text file ends the command
    # with one error line that names it, and no file is written.
    paths = {"folder": tmp_path / "folder", "binary": tmp_path / "binary",
             "missing": tmp_path / "missing" / "x.csv", "empty": "",
             "text": tmp_path / "text"}
    paths["folder"].mkdir()
    paths["binary"].write_bytes(b"\xff\xfe{}")
    paths["text"].write_text("version = v1\n")
    if command == "fit":
        table = tmp_path / "derive.csv"
        table.write_text("nu_tauc,builder_vs_reference_max_abs_diff\n"
                         "1.0,0.0\n")
        args = {"--in": str(table), "--out": str(tmp_path / "fit.json")}
    else:
        args = {"--config": _write_config(tmp_path / "a.json", DEVICE_A),
                "--out": str(tmp_path / "x.csv")}
    args[option] = str(paths[kind])
    before = sorted(tmp_path.rglob("*"))
    result = CliRunner().invoke(main, [command] + [
        word for pair in args.items() for word in pair])
    assert result.exit_code != 0
    assert "Traceback" not in result.output
    lines = result.output.strip().splitlines()
    errors = [line for line in lines if line.startswith("Error")]
    assert errors == lines[-1:], result.output
    assert str(paths[kind]) in errors[0]
    reason = {("--config", "missing"): "does not exist",
              ("--config", "text"): "is not valid JSON"}
    assert reason.get((option, kind), "") in errors[0]
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("kind", ["folder", "missing", "file", "sidecar",
                                  "empty"])
def test_run_rejects_an_unwritable_out_before_running(tmp_path, monkeypatch,
                                                      kind):
    # The output path is checked before any runner is called.
    (tmp_path / "folder").mkdir()
    (tmp_path / "file").write_text("")
    (tmp_path / "x.csv.meta.json").mkdir()
    out, named = {"folder": (tmp_path / "folder",) * 2,
                  "missing": (tmp_path / "missing" / "x.csv",) * 2,
                  "file": (tmp_path / "file" / "x.csv",) * 2,
                  "sidecar": (tmp_path / "x.csv",
                              tmp_path / "x.csv.meta.json"),
                  "empty": ("", "")}[kind]

    def runner(_cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(sdid.cli._RUNNERS, "ramsey", runner)
    cfg = config_from_dict({"device": DEVICE_A, "experiment": "ramsey",
                            "out": str(out)})
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(ConfigError) as err:
        sdid.cli.run(cfg)
    assert str(err.value).startswith(f"cannot write '{named}': ")
    assert "\n" not in str(err.value)
    assert sorted(tmp_path.rglob("*")) == before


def test_run_requires_an_out_path():
    cfg = config_from_dict({"device": DEVICE_A})
    with pytest.raises(ConfigError, match="field 'out' is required to run "
                                          "an experiment"):
        sdid.cli.run(cfg)


def test_seed_must_be_a_non_negative_integer(tmp_path):
    for bad in (-1, 1.5, "7", True, 2 ** 128, float("nan")):
        with pytest.raises(ConfigError, match="'seed'"):
            config_from_dict({"device": DEVICE_A, "seed": bad})
    assert config_from_dict({"device": DEVICE_A, "seed": 3.0}).seed == 3
    assert config_from_dict({"device": DEVICE_A, "seed": 0}).seed == 0
    # The trajectory engine keys Philox with the seed. The config checks it
    # for every experiment, RB too, and a bad one is a one-line error, not a
    # traceback.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=-1)
    for args in (["ramsey", "--engines", "trajectory"], ["rb"]):
        out = tmp_path / "x.csv"
        result = CliRunner().invoke(main, args + ["--config", cfg,
                                                  "--out", str(out)])
        assert result.exit_code != 0
        assert "Traceback" not in result.output
        assert result.output.strip().splitlines() == [
            "Error: field 'seed' must be an integer in [0, 2**128), got -1"]
        assert not out.exists()


def test_infinite_values_are_rejected(tmp_path):
    # Python's json reads Infinity; a non-finite time would fill the CSV
    # with nan and inf.
    device = json.dumps(DEVICE_A)
    for text, field in (
            (f'{{"device": {device}, "tmax_us": Infinity}}', "'tmax_us'"),
            ('{"device": {"control": {"t2_us": 100.0}, "spectators": '
             '[{"t1_us": Infinity, "zz_4nu_khz": 45.0}]}}',
             "'device.spectators[0].t1_us'")):
        path = tmp_path / "inf.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(field) + " must be "
                           "finite, got inf"):
            load_config(path)
        result = CliRunner().invoke(main, [
            "ramsey", "--config", str(path), "--out", str(tmp_path / "r.csv")])
        assert result.exit_code != 0
        assert result.output.startswith(f"Error: field {field}")
        assert not (tmp_path / "r.csv").exists()


def test_list_and_count_fields_name_the_field():
    bad = [({"orders": ["x"]}, "'orders[0]'"),
           ({"orders": 3}, "'orders'"),
           ({"orders": [0, 1.5]}, "'orders[1]'"),
           ({"orders": [-1]}, "'orders[0]'"),
           ({"lengths": "1,2,3"}, "'lengths'"),
           ({"lengths": [1, 0]}, "'lengths[1]'"),
           ({"nu_tauc": [0]}, "'nu_tauc[0]'"),
           ({"nu_tauc": [1.0, "x"]}, "'nu_tauc[1]'"),
           ({"nu_tauc": [float("nan")]}, "'nu_tauc[0]'"),
           ({"nu_tauc": 1.0}, "'nu_tauc'"),
           ({"engines": "analytic"}, "'engines'"),
           ({"engines": ["analytic", "lindblad", "analytic"]},
            "'engines' repeats entry 'analytic'"),
           ({"orders": [0, 4, 0]}, "'orders' repeats entry 0"),
           ({"engines": []}, "'engines' must not be empty"),
           ({"orders": []}, "'orders' must not be empty"),
           ({"nu_tauc": []}, "'nu_tauc' must not be empty"),
           ({"lengths": []}, "'lengths' must not be empty"),
           *(({"device": {**DEVICE_A, "spectators": spectators}},
              "'device.spectators' must be a list")
             for spectators in (5, None, DEVICE_A["spectators"][0], "s1")),
           ({"points": 2.5}, "'points'"),
           ({"points": True}, "'points'"),
           ({"n_seq": 0}, "'n_seq'"),
           ({"n_seq": 2.5}, "'n_seq'"),
           ({"n_traj": "100"}, "'n_traj'"),
           ({"n_traj": 1}, "'n_traj'"),
           ({"experiment": "cpmg", "points": 3}, "'points'"),
           ({"experiment": "rb", "lengths": [1, 5, 5, 1]}, "'lengths'")]
    for extra, field in bad:
        with pytest.raises(ConfigError, match=re.escape(field)):
            config_from_dict({"device": DEVICE_B, **extra})
    # Integral floats count as integers, as for the seed.
    cfg = config_from_dict({"device": DEVICE_B, "experiment": "rb",
                            "orders": [0, 4.0], "lengths": [1, 2.0, 3],
                            "points": 4.0, "n_seq": 2.0, "n_traj": 10.0,
                            "nu_tauc": [1, 0.5]})
    assert cfg.orders == (0, 4) and cfg.lengths == (1, 2, 3)
    assert (cfg.points, cfg.n_seq, cfg.n_traj) == (4, 2, 10)
    assert all(type(n) is int
               for n in cfg.orders + cfg.lengths
               + (cfg.points, cfg.n_seq, cfg.n_traj))
    assert cfg.nu_tauc == (1.0, 0.5)


@pytest.mark.parametrize("command, option, value", [
    ("cpmg", "--orders", "1,x"), ("rb", "--lengths", "1,20,x"),
    ("derive", "--nu-tauc", "0.1,x")])
def test_cli_rejects_bad_list_entries_in_one_line(tmp_path, command, option,
                                                  value):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B)
    out = tmp_path / "x.csv"
    result = CliRunner().invoke(main, [command, option, value, "--config",
                                       cfg, "--out", str(out)])
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error")]
    assert len(errors) == 1 and f"'{option}'" in errors[0], result.output
    assert not out.exists()


def test_cli_reports_too_few_points_or_lengths_in_one_line(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B)
    out = tmp_path / "x.csv"
    for args, field in ((["cpmg", "--points", "3"], "'points'"),
                        (["rb", "--lengths", "1,20,1"], "'lengths'"),
                        (["ramsey", "--engines", "analytic,analytic"],
                         "'engines' repeats entry 'analytic'"),
                        (["cpmg", "--orders", "0,4,0"],
                         "'orders' repeats entry 0"),
                        (["rb", "--init", "abc"], "'spectator_init'"),
                        (["rb", "--frame", "lab"], "'frame'")):
        result = CliRunner().invoke(main, args + ["--config", cfg,
                                                  "--out", str(out)])
        assert result.exit_code != 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: field {field}")
        assert not out.exists()


# Nothing decays: the control has no T1 or T2, the spectator no T1.
DEVICE_STILL = {"control": {},
                "spectators": [{"t2_us": 100.0, "zz_4nu_khz": 45.0}]}


def test_cli_cpmg_needs_tmax_when_nothing_decays(tmp_path):
    # The default window is 5 heuristic decay times, and here that rate is 0.
    cfg = _write_config(tmp_path / "still.json", DEVICE_STILL)
    out = tmp_path / "cpmg.csv"
    result = CliRunner().invoke(main, ["cpmg", "--config", cfg,
                                       "--out", str(out)])
    assert result.exit_code != 0
    assert result.output.strip().splitlines() == [
        "Error: field 'tmax_us' is required when nothing decays"]
    assert not out.exists()


def test_cli_json_is_strict_when_nothing_decays(tmp_path):
    # The fitted T2 is infinite; a sidecar and `sdid fit` write it as null.
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    cfg = _write_config(tmp_path / "still.json", DEVICE_STILL)
    out = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, ["ramsey", "--config", cfg,
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "ramsey.csv.meta.json").read_text(),
                      parse_constant=reject)
    [record] = meta["fits"]
    assert record["t2_us"] is None and record["params"]["t2"] is None
    assert "fitted rate is non-positive" in record["warnings"]
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output, parse_constant=reject) == {
        "fits": meta["fits"]}


def test_cli_notes_stderrs_that_the_data_do_not_determine(tmp_path):
    # Eleven points of a curve that does not decay fit a vanishing amplitude
    # whose rate nothing pins: the normal matrix is degenerate.
    cfg = _write_config(tmp_path / "still.json", DEVICE_STILL)
    out = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, ["ramsey", "--config", cfg,
                                       "--points", "11", "--out", str(out)])
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "ramsey.csv.meta.json").read_text())
    [record] = meta["fits"]
    assert [name for name, se in record["stderr"].items() if se is None] == [
        "amplitude", "rate", "t2"]
    assert record["warnings"] == [
        "the data do not determine the stderr of amplitude, rate",
        NO_DECAY_NOTE]
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"fits": meta["fits"]}


NO_DECAY_NOTE = ("the fitted curve does not decay over the data: "
                 "T2 is not determined")


def test_cli_notes_a_curve_that_does_not_decay(tmp_path):
    # With 11 points the fit drives the amplitude to ~1e-303 and reports a
    # finite T2 of ~5e15 us, converged: its record says that T2 is not
    # determined.  With 101 points the rate is non-positive, T2 is infinite
    # and that note says it; a decaying curve gets neither.
    still = _write_config(tmp_path / "still.json", DEVICE_STILL)
    decays = _write_config(tmp_path / "a.json", DEVICE_A)
    for name, cfg, points, noted in (("still11", still, "11", True),
                                     ("still101", still, "101", False),
                                     ("a11", decays, "11", False)):
        out = tmp_path / f"{name}.csv"
        result = CliRunner().invoke(main, ["ramsey", "--config", cfg,
                                           "--points", points,
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        [record] = meta["fits"]
        assert record["converged"]
        assert (NO_DECAY_NOTE in record["warnings"]) == noted, record
        non_positive = "fitted rate is non-positive" in record["warnings"]
        assert non_positive == (name == "still101"), record
        result = CliRunner().invoke(main, ["fit", "--in", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output) == {"fits": meta["fits"]}


def test_sidecar_records_the_device_as_written(tmp_path):
    # Labels included: an empty one, one that repeats another qubit's, and
    # an absent one, which stays absent.
    spectators = [dict(spec) for spec in DEVICE_B["spectators"]]
    spectators[0]["label"] = ""
    spectators[2]["label"] = "s1"
    labelled = dict(DEVICE_B, spectators=spectators)
    cfg = _write_config(tmp_path / "b.json", labelled)
    out = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, ["ramsey", "--config", cfg, "--points",
                                       "11", "--out", str(out)])
    assert result.exit_code == 0, result.output
    resolved = json.loads(Path(f"{out}.meta.json").read_text())[
        "resolved_config"]
    assert resolved["device"] == labelled
    again = device_from_dict(resolved["device"])
    assert [q.label for q, _ in again.spectators] == [
        "", "device.spectators[1]", "s1"]


def test_sidecar_of_a_many_digit_device_reruns_the_run(tmp_path):
    # A number with more digits than a rate reads back from: re-derived
    # from the rate and rounded, it would give other rates and other rows.
    spectators = [dict(spec) for spec in DEVICE_B["spectators"]]
    spectators[2]["t1_us"] = 123.456789012345
    cfg = _write_config(tmp_path / "b.json",
                        dict(DEVICE_B, spectators=spectators))
    for name, args in (("ramsey", ["--engines", "analytic,lindblad"]),
                       ("cpmg", ["--orders", "0,4"]),
                       ("rb", ["--init", "plus"])):
        out = tmp_path / f"{name}.csv"
        result = CliRunner().invoke(main, [name, "--config", cfg] + args
                                    + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        again_cfg = tmp_path / f"{name}.resolved.json"
        again_cfg.write_text(json.dumps(meta["resolved_config"]))
        again = tmp_path / f"{name}.again.csv"
        result = CliRunner().invoke(main, [name, "--config", str(again_cfg),
                                           "--out", str(again)])
        assert result.exit_code == 0, (name, result.output)
        assert again.read_bytes() == out.read_bytes(), name
        assert meta["resolved_config"]["device"]["spectators"][2][
            "t1_us"] == 123.456789012345


def test_sidecar_config_reruns_the_run(tmp_path):
    # A sidecar's resolved_config is a config file: fed back through
    # --config, it reproduces the run's CSV byte for byte.  Its device is
    # the one written.
    for label, device in (("a", DEVICE_A), ("b", DEVICE_B)):
        cfg = _write_config(tmp_path / f"{label}.json", device)
        for name, args in (
                ("ramsey", ["--points", "21", "--ntraj", "500", "--seed", "7",
                            "--engines", "analytic,lindblad,trajectory"]),
                ("cpmg", ["--orders", "0,4", "--points", "11"]),
                ("rb", ["--init", "plus", "--lengths", "1,5,20"]),
                ("derive", ["--nu-tauc", "0.1,10"])):
            out = tmp_path / f"{label}_{name}.csv"
            result = CliRunner().invoke(main, [name, "--config", cfg] + args
                                        + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            meta = json.loads(Path(f"{out}.meta.json").read_text())
            resolved = meta["resolved_config"].get("device")
            if name == "derive":
                # derive reads no device, so its sidecar records none.
                assert resolved is None, label
            else:
                assert resolved == device, (label, name)
            again_cfg = tmp_path / f"{label}_{name}.resolved.json"
            again_cfg.write_text(json.dumps(meta["resolved_config"]))
            again = tmp_path / f"{label}_{name}.again.csv"
            result = CliRunner().invoke(main, [name, "--config",
                                               str(again_cfg),
                                               "--out", str(again)])
            assert result.exit_code == 0, (label, name, result.output)
            assert again.read_bytes() == out.read_bytes(), (label, name)


# The fields each experiment reads, besides `version` and `experiment`.
READS = {"ramsey": {"device", "spectator_init", "tmax_us", "points",
                    "engines", "n_traj", "seed"},
         "cpmg": {"device", "spectator_init", "tmax_us", "points", "orders"},
         "rb": {"device", "spectator_init", "lengths", "tgate_ns", "frame"},
         "derive": {"nu_tauc"}}


def test_sidecar_config_lists_what_the_run_read(tmp_path):
    # The config file sets fields that no run here reads (n_seq) or that
    # only some read; each sidecar records exactly its experiment's fields.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, n_seq=7, seed=3,
                        orders=[0, 2], nu_tauc=[1.0], tgate_ns=20.0)
    for name, args in (
            ("ramsey", ["--points", "11", "--tmax-us", "100"]),
            ("cpmg", ["--points", "11", "--tmax-us", "100"]),
            ("rb", ["--init", "plus"]), ("derive", [])):
        out = tmp_path / f"{name}.csv"
        result = CliRunner().invoke(main, [name, "--config", cfg] + args
                                    + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        resolved = json.loads(Path(f"{out}.meta.json").read_text())[
            "resolved_config"]
        assert set(resolved) == READS[name] | {"version", "experiment"}, name
    assert config_from_dict(resolved).nu_tauc == (1.0,)


def test_derive_without_a_config_records_no_device(tmp_path):
    out = tmp_path / "derive.csv"
    result = CliRunner().invoke(main, ["derive", "--nu-tauc", "0.1,10",
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    resolved = json.loads(Path(f"{out}.meta.json").read_text())[
        "resolved_config"]
    assert resolved == {"version": "v1", "experiment": "derive",
                        "nu_tauc": [0.1, 10.0]}
    again_cfg = tmp_path / "derive.resolved.json"
    again_cfg.write_text(json.dumps(resolved))
    again = tmp_path / "derive.again.csv"
    result = CliRunner().invoke(main, ["derive", "--config", str(again_cfg),
                                       "--out", str(again)])
    assert result.exit_code == 0, result.output
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("experiment", sorted(READS))
def test_cli_options_are_the_fields_the_experiment_reads(experiment):
    # Each subcommand takes an option for each field its experiment reads,
    # save the device, which only a config file gives.
    reads = {name for name, (_, readers) in sdid.config._FIELDS.items()
             if experiment in readers}
    assert reads == READS[experiment]
    options = {p.name for p in main.commands[experiment].params}
    assert options - {"config_path", "out"} == reads - {"device"}


def test_config_defaults():
    cfg = config_from_dict({"device": DEVICE_B})
    assert cfg.experiment == "ramsey"
    assert cfg.spectator_init == "111"
    assert cfg.points == 101
    assert cfg.frame == "experimental"
    assert cfg.engines == ("analytic",)
    assert np.isclose(cfg.t_gate, 50e-9)


def _read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_cli_ramsey_cross_checks_engines(tmp_path):
    cfg = _write_config(tmp_path / "a.json", DEVICE_A)
    out = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, [
        "ramsey", "--config", cfg, "--spectators", "1", "--tmax-us", "500",
        "--points", "41", "--engines", "analytic,lindblad",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "ramsey.csv.meta.json").read_text())
    assert meta["cross_checks"]["analytic_vs_lindblad_max_abs_diff"] <= 1e-8
    rows = _read_rows(out)
    assert {r["engine"] for r in rows} == {"analytic", "lindblad"}
    assert len(rows) == 2 * 41
    first = [r for r in rows if r["engine"] == "analytic"][0]
    assert float(first["time_us"]) == 0.0
    assert np.isclose(float(first["coh_abs"]), 1.0)


def test_cli_ramsey_compares_trajectories_as_complex_numbers(tmp_path):
    # The sidecar's analytic-vs-trajectory gap is the complex max |delta|,
    # recomputed here from the CSV, and every point is within 4 SE.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=5)
    out = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, [
        "ramsey", "--config", cfg, "--spectators", "111",
        "--engines", "analytic,trajectory", "--ntraj", "20000",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_rows(out)
    coh = {engine: np.array([complex(float(r["coh_re"]), float(r["coh_im"]))
                             for r in rows if r["engine"] == engine])
           for engine in ("analytic", "trajectory")}
    se = np.array([float(r["stderr_abs"]) for r in rows
                   if r["engine"] == "trajectory"])
    delta = np.abs(coh["analytic"] - coh["trajectory"])
    meta = json.loads((tmp_path / "ramsey.csv.meta.json").read_text())
    assert (meta["cross_checks"]["analytic_vs_trajectory_max_abs_diff"]
            == delta.max())
    assert np.all(delta <= 4.0 * se + 1e-12), (delta / se).max()


def test_cli_ramsey_at_one_point(tmp_path):
    # One point is t = 0, where every engine gives coherence 1 exactly; no
    # curve can be fitted to it, and the sidecar says so.
    cfg = _write_config(tmp_path / "a.json", DEVICE_A, n_traj=2000)
    out = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, [
        "ramsey", "--config", cfg, "--points", "1", "--engines",
        "analytic,lindblad,trajectory", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_rows(out)
    assert [r["engine"] for r in rows] == ["analytic", "lindblad",
                                           "trajectory"]
    for r in rows:
        assert (float(r["time_us"]), float(r["coh_re"]),
                float(r["coh_im"])) == (0.0, 1.0, 0.0)
    assert [r["stderr_abs"] for r in rows] == ["", "", "0.0"]
    meta = json.loads((tmp_path / "ramsey.csv.meta.json").read_text())
    assert meta["fits"] == []
    assert meta["fit_error"] == ("engine 'analytic': fit_exponential needs "
                                 "at least 4 points")
    assert meta["cross_checks"] == {"analytic_vs_lindblad_max_abs_diff": 0.0,
                                    "analytic_vs_trajectory_max_abs_diff":
                                        0.0}


def test_cli_runs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "a.json", DEVICE_A, seed=13)
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        result = CliRunner().invoke(main, [
            "ramsey", "--config", cfg, "--tmax-us", "300", "--points", "11",
            "--engines", "analytic,trajectory", "--ntraj", "2000",
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_lindblad_csv_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "a.json", DEVICE_A)
    blobs = []
    for name in ("l1.csv", "l2.csv"):
        out = tmp_path / name
        result = CliRunner().invoke(main, [
            "ramsey", "--config", cfg, "--tmax-us", "400", "--points", "21",
            "--engines", "analytic,lindblad", "--out", str(out)])
        assert result.exit_code == 0, result.output
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_rewrite_leaves_only_the_new_bytes(tmp_path):
    # Outputs are rewritten in place; a shorter output written over a
    # longer one must leave none of the old bytes behind.
    cfg = _write_config(tmp_path / "a.json", DEVICE_A)
    out, fresh = tmp_path / "r.csv", tmp_path / "fresh.csv"
    for points, path in (("41", out), ("11", out), ("11", fresh)):
        result = CliRunner().invoke(main, [
            "ramsey", "--config", cfg, "--points", points,
            "--engines", "analytic,lindblad", "--out", str(path)])
        assert result.exit_code == 0, result.output
    assert out.read_bytes() == fresh.read_bytes()
    assert (Path(f"{out}.meta.json").read_bytes()
            == Path(f"{fresh}.meta.json").read_bytes())
    fit_out, fit_fresh = tmp_path / "fit.json", tmp_path / "fit_fresh.json"
    fit_out.write_text("x" * 10000)
    for path in (fit_out, fit_fresh):
        result = CliRunner().invoke(main, ["fit", "--in", str(fresh),
                                           "--out", str(path)])
        assert result.exit_code == 0, result.output
    assert fit_out.read_bytes() == fit_fresh.read_bytes()


def test_cli_writes_to_a_device_and_creates_files_as_open_does(tmp_path):
    # A device has no old bytes to cut, and cannot be truncated: writing to
    # one succeeds.  A new regular file gets the mode open(path, "w") gives.
    table = tmp_path / "derive.csv"
    result = CliRunner().invoke(main, ["derive", "--nu-tauc", "0.1,10",
                                       "--out", str(table)])
    assert result.exit_code == 0, result.output
    result = CliRunner().invoke(main, ["fit", "--in", str(table),
                                       "--out", os.devnull])
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote {os.devnull}\n"
    reference = tmp_path / "reference"
    with open(reference, "w"):
        pass
    mode = stat.S_IMODE(reference.stat().st_mode)
    for path in (table, Path(f"{table}.meta.json")):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path


def test_cli_cpmg_sweep(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B)
    out = tmp_path / "cpmg.csv"
    result = CliRunner().invoke(main, [
        "cpmg", "--config", cfg, "--orders", "0,4", "--points", "31",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_rows(out)
    assert {r["cpmg_n"] for r in rows} == {"0", "4"}
    meta = json.loads((tmp_path / "cpmg.csv.meta.json").read_text())
    assert [f["cpmg_n"] for f in meta["fits"]] == [0, 4]
    assert meta["fits"][1]["t2_us"] > 0


def test_cli_cpmg_fits_are_physical(tmp_path):
    # The coherence decays to zero, so the fit pins the offset to 0: no
    # order's T2 may exceed the control's own 241 us.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B)
    out = tmp_path / "cpmg.csv"
    result = CliRunner().invoke(main, [
        "cpmg", "--config", cfg, "--orders", "0,1,4,16,64,160",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "cpmg.csv.meta.json").read_text())
    fits = meta["fits"]
    assert [f["cpmg_n"] for f in fits] == [0, 1, 4, 16, 64, 160]
    assert all(f["converged"] for f in fits)
    t2s = [f["t2_us"] for f in fits]
    assert all(0.0 < t2 <= 241.0 for t2 in t2s), t2s


def test_cli_cpmg_sidecar_records_window_and_residuals(tmp_path):
    # The exact T2 is not monotone in the order, so each fit is reported
    # with its window and residual rather than as a trend.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, spectator_init="111")
    out = tmp_path / "cpmg.csv"
    result = CliRunner().invoke(main, [
        "cpmg", "--config", cfg, "--orders", "0,1,4,16", "--out", str(out)])
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "cpmg.csv.meta.json").read_text())
    rows = _read_rows(out)
    assert meta["tmax_us"] == max(float(r["time_us"]) for r in rows)
    rate = 1 / 241e-6 + 1 / 150e-6 + 1 / 218e-6 + 1 / 122e-6
    assert math.isclose(meta["tmax_us"], 5e6 / rate, rel_tol=1e-6)
    assert [f["cpmg_n"] for f in meta["fits"]] == [0, 1, 4, 16]
    for f in meta["fits"]:
        n, residual = f["cpmg_n"], f["residual_norm"]
        group = [r for r in rows if r["cpmg_n"] == str(n)]
        times = np.array([float(r["time_us"]) for r in group]) * 1e-6
        mags = np.array([float(r["coh_abs"]) for r in group])
        refit = fit_exponential(times, mags, offset=0.0)
        assert 0.0 < residual < 1.0
        assert abs(residual - refit.residual_norm) <= 1e-12, n


def test_cli_cpmg_notes_a_poor_single_exponential_fit(tmp_path):
    # On device B with every spectator excited, one exponential misses the
    # order-4 curve by an rms of about 0.08 but fits order 160 closely.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, spectator_init="111")
    out = tmp_path / "cpmg.csv"
    result = CliRunner().invoke(main, [
        "cpmg", "--config", cfg, "--orders", "0,4,160", "--out", str(out)])
    assert result.exit_code == 0, result.output
    sidecar = json.loads((tmp_path / "cpmg.csv.meta.json").read_text())
    fits = {f["cpmg_n"]: f for f in sidecar["fits"]}
    points = len(_read_rows(out)) // len(fits)
    rms = {n: f["residual_norm"] / math.sqrt(points)
           for n, f in fits.items()}
    assert rms[4] > MAX_RMS_RESIDUAL > rms[160]
    [note] = [w for w in fits[4]["warnings"] if "rms residual" in w]
    assert f"{rms[4]:.3g}" in note
    assert not any("rms residual" in w for w in fits[160]["warnings"])
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["fits"] == sidecar["fits"]


EXTRAPOLATION_NOTE = ("T2 lies beyond the last time of the data: it is an "
                      "extrapolation")


def test_cli_cpmg_notes_a_t2_beyond_the_data(tmp_path):
    # Device B's default window ends at 211.9 us; orders 64 and 160 fit a T2
    # of 225.2 and 238.2 us past it, order 16 one of 130.5 us inside it.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, spectator_init="111")
    out = tmp_path / "cpmg.csv"
    result = CliRunner().invoke(main, [
        "cpmg", "--config", cfg, "--orders", "16,64,160", "--out", str(out)])
    assert result.exit_code == 0, result.output
    sidecar = json.loads((tmp_path / "cpmg.csv.meta.json").read_text())
    for f in sidecar["fits"]:
        beyond = f["t2_us"] > sidecar["tmax_us"]
        assert beyond == (f["cpmg_n"] in (64, 160)), f
        assert (EXTRAPOLATION_NOTE in f["warnings"]) == beyond, f
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["fits"] == sidecar["fits"]


def test_cli_rb_and_fit_round_trip(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=3)
    out = tmp_path / "rb.csv"
    result = CliRunner().invoke(main, [
        "rb", "--config", cfg, "--init", "one", "--lengths", "1,20,60,120",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_rows(out)
    assert [r["length"] for r in rows] == ["1", "20", "60", "120"]
    assert all(0.0 <= float(r["survival"]) <= 1.0 for r in rows)
    fit_out = tmp_path / "fit.json"
    result = CliRunner().invoke(main, [
        "fit", "--in", str(out), "--out", str(fit_out)])
    assert result.exit_code == 0, result.output
    [payload] = json.loads(fit_out.read_text())["fits"]
    assert 0.0 < payload["params"]["p"] <= 1.0 + 1e-9


def test_cli_rb_fit_pins_the_offset(tmp_path):
    # A SPAM-free simulation decays to 1/2; a free offset lets the fit run off.
    # The file's "plus" is checked against the subcommand's experiment.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=3,
                        spectator_init="plus")
    out = tmp_path / "rb.csv"
    result = CliRunner().invoke(main, [
        "rb", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, result.output
    [fit] = json.loads((tmp_path / "rb.csv.meta.json").read_text())["fits"]
    assert fit["converged"] is True
    assert fit["params"]["offset"] == 0.5
    # Re-fitting the CSV gives the run's own fit.
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    [refit] = json.loads(result.output)["fits"]
    assert refit["converged"] is True
    assert refit["params"]["offset"] == 0.5
    assert abs(refit["params"]["epc"] - fit["params"]["epc"]) <= 1e-12


def test_cli_fit_notes_an_rb_curve_at_its_asymptote(tmp_path):
    # A curve that sits at 1/2 does not determine p; one at 1 determines
    # p = 1.
    for survival, notes in (("0.5", ["the fitted curve does not decay from "
                                     "its asymptote: p is not determined"]),
                            ("1.0", [])):
        path = tmp_path / f"rb_{survival}.csv"
        path.write_text("length,survival\n" + "".join(
            f"{m},{survival}\n" for m in (1, 10, 50, 100, 400)))
        result = CliRunner().invoke(main, ["fit", "--in", str(path)])
        assert result.exit_code == 0, result.output
        [record] = json.loads(result.output)["fits"]
        assert record["converged"] is True
        assert record["warnings"] == notes


def test_cli_rb_writes_the_exact_average(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=3)
    parsed = load_config(cfg)
    # The config's gate time, then `--tgate-ns` in its place.
    for options, t_gate in (([], parsed.t_gate),
                            (["--tgate-ns", "20"], 20e-9)):
        out = tmp_path / f"rb{len(options)}.csv"
        result = CliRunner().invoke(main, [
            "rb", "--config", cfg, "--init", "plus", "--lengths",
            "1,20,60,120", "--out", str(out)] + options)
        assert result.exit_code == 0, result.output
        curve = average_survival(parsed.device, "plus", [1, 20, 60, 120],
                                 t_gate=t_gate)
        want = "length,survival\n" + "".join(
            f"{m},{float(s)!r}\n"
            for m, s in zip(curve.lengths, curve.survival))
        assert out.read_text() == want


def test_cli_rb_init_takes_every_preparation_the_config_takes(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B)
    for init in ("101", "0", "+"):
        out = tmp_path / f"rb_{init}.csv"
        result = CliRunner().invoke(main, [
            "rb", "--config", cfg, "--init", init, "--out", str(out)])
        assert result.exit_code == 0, result.output
    from_file = _write_config(tmp_path / "b101.json", DEVICE_B,
                              spectator_init="101")
    out = tmp_path / "rb_file.csv"
    result = CliRunner().invoke(main, [
        "rb", "--config", from_file, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (tmp_path / "rb_101.csv").read_bytes()


def test_cli_fit_reports_short_inputs_in_one_line(tmp_path):
    cfg = _write_config(tmp_path / "a.json", DEVICE_A)
    ramsey = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, [
        "ramsey", "--config", cfg, "--points", "2", "--out", str(ramsey)])
    assert result.exit_code == 0, result.output
    rb = tmp_path / "rb.csv"
    rb.write_text("length,survival,stderr\n1,0.99,\n20,0.9,\n1,0.98,\n")
    text = tmp_path / "text.csv"
    text.write_text("time_us,coh_abs,engine\n0.0,1.0,analytic\n"
                    "1.0,high,analytic\n")
    short = tmp_path / "short.csv"
    short.write_text("length,survival\n1,0.99\n20\n60,0.9\n")
    no_engine = tmp_path / "no_engine.csv"
    no_engine.write_text("time_us,coh_abs\n0.0,1.0\n")
    # A non-finite entry parses as a float but cannot be fitted.
    nan = tmp_path / "nan.csv"
    nan.write_text("time_us,coh_abs,engine\n" + "".join(
        f"{t},{m},analytic\n" for t, m in ((0, 1.0), (1, 0.9), (2, "nan"),
                                           (3, 0.7), (4, 0.6))))
    rb_nan = tmp_path / "rb_nan.csv"
    rb_nan.write_text("length,survival\n1,0.99\n20,nan\n60,0.9\n")
    for path, message in (
            (ramsey, "engine 'analytic': fit_exponential needs at least 4 "
                     "points"),
            (rb, "fit_rb needs at least 3 distinct lengths"),
            (text, "column 'coh_abs' has an entry that is not float"),
            (short, "column 'survival' has an entry that is not float"),
            (no_engine, "no column 'engine'"),
            (nan, "engine 'analytic': fit_exponential needs finite times "
                  "and magnitudes"),
            (rb_nan, "fit_rb needs finite lengths and survival")):
        result = CliRunner().invoke(main, ["fit", "--in", str(path)])
        assert result.exit_code != 0
        assert result.output.strip().splitlines() == [
            f"Error: {path}: {message}"]
    # The run's sidecar records the error that `sdid fit` reports.
    meta = json.loads((tmp_path / "ramsey.csv.meta.json").read_text())
    assert meta["fits"] == []
    assert meta["fit_error"] == ("engine 'analytic': fit_exponential needs "
                                 "at least 4 points")


def test_cli_derive_table_matches_closed_forms(tmp_path):
    out = tmp_path / "derive.csv"
    result = CliRunner().invoke(main, [
        "derive", "--nu-tauc", "0.001,1.0,1000.0", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_rows(out)
    assert len(rows) == 3
    for row in rows:
        x = float(row["nu_tauc"])
        s = np.sinc(4.0 * x / np.pi)
        assert np.isclose(float(row["coef_uncorrelated"]), 0.5 * (1.0 + s))
        assert np.isclose(float(row["coef_correlated"]), 0.5 * (1.0 - s))
        assert float(row["builder_vs_reference_max_abs_diff"]) <= 1e-10
    # limits: tau_c -> 0 removes the correlated dissipator, tau_c -> infinity
    # splits the rates evenly
    assert float(rows[0]["coef_correlated"]) <= 1e-5
    assert np.isclose(float(rows[2]["coef_uncorrelated"]), 0.5, atol=1e-3)


def test_cli_fit_exponential_from_ramsey_csv(tmp_path):
    cfg = _write_config(tmp_path / "a.json", DEVICE_A)
    out = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, [
        "ramsey", "--config", cfg, "--spectators", "0", "--tmax-us", "500",
        "--points", "41", "--engines", "analytic", "--out", str(out)])
    assert result.exit_code == 0, result.output
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    # ground-state spectators leave the bare control decay, T2 = 127 us
    assert abs(payload["fits"][0]["t2_us"] - 127.0) / 127.0 <= 1e-3


def test_cli_fit_fits_each_engine_and_order_separately(tmp_path):
    cfg = _write_config(tmp_path / "a.json", DEVICE_A, n_traj=2000)
    out = tmp_path / "ramsey.csv"
    result = CliRunner().invoke(main, [
        "ramsey", "--config", cfg, "--spectators", "0", "--tmax-us", "500",
        "--points", "41", "--engines", "analytic,lindblad,trajectory",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    fits = json.loads(result.output)["fits"]
    assert [f["engine"] for f in fits] == ["analytic", "lindblad",
                                           "trajectory"]
    for f in fits:
        assert "cpmg_n" not in f
        assert abs(f["t2_us"] - 127.0) / 127.0 <= 1e-3, f
    out = tmp_path / "cpmg.csv"
    result = CliRunner().invoke(main, [
        "cpmg", "--config", cfg, "--orders", "0,4", "--points", "31",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    fits = json.loads(result.output)["fits"]
    assert [(f["engine"], f["cpmg_n"]) for f in fits] == [("analytic", 0),
                                                          ("analytic", 4)]


def test_cli_fit_of_a_cpmg_csv_reproduces_the_sidecar(tmp_path):
    # `sdid cpmg` pins each order's offset to 0; the re-fit must too.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=5)
    out = tmp_path / "cpmg.csv"
    result = CliRunner().invoke(main, [
        "cpmg", "--config", cfg, "--orders", "0,1,4,16", "--out", str(out)])
    assert result.exit_code == 0, result.output
    sidecar = json.loads((tmp_path / "cpmg.csv.meta.json").read_text())
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    fits = json.loads(result.output)["fits"]
    assert [f["cpmg_n"] for f in fits] == [0, 1, 4, 16]
    assert fits == sidecar["fits"]
    for f in fits:
        assert f["params"]["offset"] == 0.0


def test_cli_fit_prints_the_fits_of_the_run_sidecar(tmp_path):
    # One fit path: a run's sidecar holds exactly what `sdid fit` prints for
    # its CSV, for every experiment that fits.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=5, n_traj=2000)
    for name, args in (
            ("ramsey", ["--points", "21", "--engines",
                        "analytic,lindblad,trajectory"]),
            ("cpmg", ["--orders", "0,1,4,16"]),
            ("rb", ["--init", "plus"])):
        out = tmp_path / f"{name}.csv"
        result = CliRunner().invoke(main, [name, "--config", cfg] + args
                                    + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        assert meta["fits"] and "fit_error" not in meta, name
        result = CliRunner().invoke(main, ["fit", "--in", str(out)])
        assert result.exit_code == 0, result.output
        assert result.output == _json({"fits": meta["fits"]}) + "\n", name
    # A derive table has no fit: its sidecar has no `fits`, and `sdid fit`
    # prints none.
    out = tmp_path / "derive.csv"
    result = CliRunner().invoke(main, ["derive", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "fits" not in json.loads(
        (tmp_path / "derive.csv.meta.json").read_text())
    result = CliRunner().invoke(main, ["fit", "--in", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {"fits": []}


def test_cli_requires_output_path(tmp_path):
    cfg = _write_config(tmp_path / "a.json", DEVICE_A)
    result = CliRunner().invoke(main, ["ramsey", "--config", cfg])
    assert result.exit_code != 0


def test_no_command_loads_scipy(tmp_path):
    # A fresh interpreter: tests/test_operators.py imports scipy, so this
    # process may have loaded it already.
    script = textwrap.dedent("""
        import sys
        import sdid, sdid.cli
        cfg, out = sys.argv[1:]
        def run(*args):
            sdid.cli.main(list(args), standalone_mode=False)
        run("--help")
        run("ramsey", "--config", cfg, "--points", "11", "--engines",
            "analytic,lindblad,trajectory", "--ntraj", "100", "--out",
            f"{out}/ramsey.csv")
        run("cpmg", "--config", cfg, "--orders", "0,4", "--points", "11",
            "--out", f"{out}/cpmg.csv")
        run("rb", "--config", cfg, "--lengths", "1,20,60", "--out",
            f"{out}/rb.csv")
        run("derive", "--nu-tauc", "0.1,1", "--out", f"{out}/derive.csv")
        run("fit", "--in", f"{out}/ramsey.csv", "--out", f"{out}/fit.json")
        print("scipy modules:", sorted(m for m in sys.modules
                                       if m.split(".")[0] == "scipy"))
    """)
    cfg = _write_config(tmp_path / "b.json", DEVICE_B)
    src = str(Path(sdid.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else [])))
    proc = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scipy modules: []", proc.stdout
    # The Lindblad engine did run, and exponentiated its sector blocks;
    # so did the trajectory engine.
    table = (tmp_path / "ramsey.csv").read_text()
    assert "lindblad" in table and "trajectory" in table
