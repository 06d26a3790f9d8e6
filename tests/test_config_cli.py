"""Config parsing, unit conversion, and the command-line interface."""

import csv
import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from sdid import (ConfigError, average_survival, config_from_dict,
                  device_from_dict, device_to_dict, fit_exponential,
                  load_config, nu_from_4nu_khz)
from sdid.cli import main

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
    with pytest.raises(ConfigError, match="T2 exceeds 2\\*T1"):
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


def test_cli_reports_config_errors_without_traceback(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, spectator_init="plus")
    result = CliRunner().invoke(main, [
        "ramsey", "--config", cfg, "--out", str(tmp_path / "r.csv")])
    assert result.exit_code != 0
    assert "Traceback" not in result.output
    assert "Error: field 'spectator_init'" in result.output
    assert not (tmp_path / "r.csv").exists()


def test_seed_must_be_a_non_negative_integer(tmp_path):
    for bad in (-1, 1.5, "7", True, 2 ** 128, float("nan")):
        with pytest.raises(ConfigError, match="'seed'"):
            config_from_dict({"device": DEVICE_A, "seed": bad})
    assert config_from_dict({"device": DEVICE_A, "seed": 3.0}).seed == 3
    assert config_from_dict({"device": DEVICE_A, "seed": 0}).seed == 0
    # The trajectory and RB engines key Philox with the seed; a bad one is a
    # one-line error, not a traceback.
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
           ({"points": 2.5}, "'points'"),
           ({"points": True}, "'points'"),
           ({"n_seq": 0}, "'n_seq'"),
           ({"n_seq": 2.5}, "'n_seq'"),
           ({"n_traj": "100"}, "'n_traj'"),
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
                        (["rb", "--lengths", "1,20,1"], "'lengths'")):
        result = CliRunner().invoke(main, args + ["--config", cfg,
                                                  "--out", str(out)])
        assert result.exit_code != 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"Error: field {field}")
        assert not out.exists()


def test_device_round_trips_through_config_units():
    device = device_from_dict(DEVICE_B)
    again = device_from_dict(device_to_dict(device))
    assert np.isclose(again.control.gamma, device.control.gamma)
    assert np.isclose(again.control.gamma_tilde, device.control.gamma_tilde)
    for (q1, nu1), (q2, nu2) in zip(device.spectators, again.spectators):
        assert np.isclose(q1.gamma, q2.gamma)
        assert np.isclose(q1.gamma_tilde, q2.gamma_tilde)
        assert np.isclose(nu1, nu2)


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
    assert set(meta["fitted_t2_us"]) == {"0", "4"}
    assert meta["fitted_t2_us"]["4"] > 0


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
    orders = {"0", "1", "4", "16", "64", "160"}
    assert set(meta["fit_converged"]) == orders
    assert all(meta["fit_converged"].values())
    t2s = meta["fitted_t2_us"]
    assert set(t2s) == orders
    assert all(0.0 < t2 <= 241.0 for t2 in t2s.values()), t2s


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
    assert set(meta["fit_residual"]) == {"0", "1", "4", "16"}
    for n, residual in meta["fit_residual"].items():
        group = [r for r in rows if r["cpmg_n"] == n]
        times = np.array([float(r["time_us"]) for r in group]) * 1e-6
        mags = np.array([float(r["coh_abs"]) for r in group])
        refit = fit_exponential(times, mags, offset=0.0)
        assert 0.0 < residual < 1.0
        assert abs(residual - refit.residual_norm) <= 1e-12, n


def test_cli_rb_and_fit_round_trip(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=3)
    out = tmp_path / "rb.csv"
    result = CliRunner().invoke(main, [
        "rb", "--config", cfg, "--init", "one", "--lengths", "1,20,60,120",
        "--nseq", "4", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_rows(out)
    assert [r["length"] for r in rows] == ["1", "20", "60", "120"]
    assert all(0.0 <= float(r["survival"]) <= 1.0 for r in rows)
    fit_out = tmp_path / "fit.json"
    result = CliRunner().invoke(main, [
        "fit", "--in", str(out), "--kind", "rb", "--out", str(fit_out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(fit_out.read_text())
    assert 0.0 < payload["params"]["p"] <= 1.0 + 1e-9


def test_cli_rb_fit_pins_the_offset(tmp_path):
    # A SPAM-free simulation decays to 1/2; a free offset lets the fit run off.
    # The file's "plus" is checked against the subcommand's experiment.
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=3,
                        spectator_init="plus")
    out = tmp_path / "rb.csv"
    result = CliRunner().invoke(main, [
        "rb", "--config", cfg, "--nseq", "10", "--out", str(out)])
    assert result.exit_code == 0, result.output
    fit = json.loads((tmp_path / "rb.csv.meta.json").read_text())["fit"]
    assert fit["converged"] is True
    assert fit["offset"] == 0.5
    # Re-fitting the CSV gives the run's own fit.
    result = CliRunner().invoke(main, ["fit", "--in", str(out), "--kind", "rb"])
    assert result.exit_code == 0, result.output
    refit = json.loads(result.output)
    assert refit["converged"] is True
    assert refit["params"]["offset"] == 0.5
    assert abs(refit["params"]["epc"] - fit["epc"]) <= 1e-12


def test_cli_rb_writes_the_exact_average(tmp_path):
    cfg = _write_config(tmp_path / "b.json", DEVICE_B, seed=3)
    out = tmp_path / "rb.csv"
    result = CliRunner().invoke(main, [
        "rb", "--config", cfg, "--init", "plus", "--lengths", "1,20,60,120",
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    parsed = load_config(cfg)
    curve = average_survival(parsed.device, "plus", [1, 20, 60, 120],
                             t_gate=parsed.t_gate)
    # The exact average has no sampling error, so `stderr` stays empty.
    want = "length,survival,stderr\n" + "".join(
        f"{m},{float(s)!r},\n" for m, s in zip(curve.lengths, curve.survival))
    assert out.read_text() == want


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
    for args, message in (
            (["--in", str(ramsey)],
             "Error: engine 'analytic': fit_exponential needs at least 4 "
             "points"),
            (["--in", str(rb), "--kind", "rb"],
             f"Error: {rb}: fit_rb needs at least 3 distinct lengths"),
            (["--in", str(rb)], f"Error: {rb}: no column 'engine'"),
            (["--in", str(ramsey), "--kind", "rb"],
             f"Error: {ramsey}: no column 'length'"),
            (["--in", str(text)],
             f"Error: {text}: column 'coh_abs' has an entry that is not "
             "float")):
        result = CliRunner().invoke(main, ["fit"] + args)
        assert result.exit_code != 0
        assert result.output.strip().splitlines() == [message]


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
    for f in fits:
        want = sidecar["fitted_t2_us"][str(f["cpmg_n"])]
        assert abs(f["t2_us"] - want) <= 1e-12, (f["cpmg_n"], f["t2_us"],
                                                 want)
        assert f["params"]["offset"] == 0.0


def test_cli_requires_output_path(tmp_path):
    cfg = _write_config(tmp_path / "a.json", DEVICE_A)
    result = CliRunner().invoke(main, ["ramsey", "--config", cfg])
    assert result.exit_code != 0
