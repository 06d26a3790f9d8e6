"""Command-line surface: experiment orchestration and CSV/JSON output.

Subcommands mirror the experiments: `ramsey` (coherence traces from up to
three engines), `cpmg` (effective-coupling sweep over pulse orders with
per-order T2 fits), `rb` (Clifford-level randomized benchmarking), `derive`
(coarse-graining-time sweep of the two-qubit master-equation coefficients),
and `fit` (re-fit a CSV produced by the other subcommands).

Every run writes a CSV plus a JSON sidecar (resolved config, fitted
parameters, seed, version).  Identical config and seed give byte-identical
CSV output.  A configuration error ends the command with a one-line message
that names the field.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import analytic, trajectory
from .config import (ConfigError, ExperimentConfig, config_from_dict,
                     config_to_dict, load_config)
from .derivations import (BathSpectrum, bohr_spectrum, build_cetcg,
                          cluster_bohr, sinc, two_qubit_cetcg_reference,
                          two_qubit_coupling, two_qubit_hamiltonian)
from .fitting import fit_exponential, fit_rb
from .model import (build_liouvillian, control_coherence,
                    parse_spectator_init, propagate, ramsey_initial_state)
from .rb import simulate_rb
from .trajectory import EnsembleSpec


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _write_sidecar(path: Path, payload: dict) -> None:
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True,
                                  default=float) + "\n")


def _lindblad_trace(device, s, times) -> np.ndarray:
    bundle = build_liouvillian(device)
    rho0 = ramsey_initial_state(device, s)
    states = propagate(bundle, rho0, times)
    # Normalized so the trace starts at 1 (raw initial coherence is 1/2).
    return 2.0 * np.array([control_coherence(r) for r in states])


def run_ramsey(cfg: ExperimentConfig, out: Path) -> dict:
    device = cfg.device
    s = parse_spectator_init(cfg.spectator_init, device.n_spectators)
    tmax = (cfg.tmax_us or 500.0) * 1e-6
    times = np.linspace(0.0, tmax, cfg.points)

    def compute(engine):
        if engine == "analytic":
            values = analytic.ramsey_trace(device, s, times).values
            return engine, values, None
        if engine == "lindblad":
            return engine, _lindblad_trace(device, s, times), None
        if engine == "trajectory":
            tr = trajectory.ensemble_trace(
                device, s, times, EnsembleSpec(n_traj=cfg.n_traj,
                                               seed=cfg.seed))
            return engine, tr.values, tr.stderr
        raise ConfigError(f"unknown engine {engine!r}")

    results = [compute(engine) for engine in cfg.engines]

    rows = []
    for engine, values, stderr in results:
        for k, t in enumerate(times):
            rows.append([t * 1e6, values[k].real, values[k].imag,
                         abs(values[k]), engine,
                         "" if stderr is None else stderr[k]])
    _write_csv(out, ["time_us", "coh_re", "coh_im", "coh_abs", "engine",
                     "stderr_abs"], rows)

    meta: dict = {"resolved_config": config_to_dict(cfg),
                  "sdid_version": __version__, "fits": {}, "cross_checks": {}}
    by_engine = {engine: values for engine, values, _ in results}
    for engine, values in by_engine.items():
        mags = np.abs(values)
        if np.all(mags > 0) and times.size >= 4:
            fit = fit_exponential(times, mags)
            meta["fits"][engine] = {"t2_us": fit.params["t2"] * 1e6,
                                    "rate_per_s": fit.params["rate"],
                                    "converged": fit.converged}
    if "analytic" in by_engine and "lindblad" in by_engine:
        meta["cross_checks"]["analytic_vs_lindblad_max_abs_diff"] = float(
            np.max(np.abs(by_engine["analytic"] - by_engine["lindblad"])))
    if "analytic" in by_engine and "trajectory" in by_engine:
        meta["cross_checks"]["analytic_vs_trajectory_max_abs_diff"] = float(
            np.max(np.abs(np.abs(by_engine["analytic"])
                          - np.abs(by_engine["trajectory"]))))
    _write_sidecar(out, meta)
    return meta


def run_cpmg(cfg: ExperimentConfig, out: Path) -> dict:
    device = cfg.device
    s = parse_spectator_init(cfg.spectator_init, device.n_spectators)
    rate = analytic.heuristic_rate(device, s)

    def compute(n):
        eff = analytic.cpmg_effective(device, n)
        tmax = cfg.tmax_us * 1e-6 if cfg.tmax_us else 5.0 / rate
        times = np.linspace(0.0, tmax, cfg.points)
        values = analytic.ramsey_trace(eff, s, times).values
        # The coherence decays to zero; a free offset lets the fit trade
        # the rate against a floor that the model does not have.
        fit = fit_exponential(times, np.abs(values), offset=0.0)
        return n, times, values, fit

    results = [compute(n) for n in cfg.orders]
    rows = []
    for n, times, values, _ in results:
        for k, t in enumerate(times):
            rows.append([n, t * 1e6, values[k].real, values[k].imag,
                         abs(values[k]), "analytic", ""])
    _write_csv(out, ["cpmg_n", "time_us", "coh_re", "coh_im", "coh_abs",
                     "engine", "stderr_abs"], rows)
    meta = {"resolved_config": config_to_dict(cfg),
            "sdid_version": __version__,
            "fitted_t2_us": {str(n): fit.params["t2"] * 1e6
                             for n, _, _, fit in results},
            "fit_converged": {str(n): fit.converged
                              for n, _, _, fit in results},
            "tmax_scaling": "5x heuristic decay time unless tmax_us given"}
    _write_sidecar(out, meta)
    return meta


def run_rb(cfg: ExperimentConfig, out: Path) -> dict:
    curve = simulate_rb(cfg.device, cfg.spectator_init, cfg.lengths,
                        n_seq=cfg.n_seq, t_gate=cfg.t_gate, frame=cfg.frame,
                        seed=cfg.seed)
    # The simulation has no state-preparation or measurement error, so the
    # survival decays to 1/2.
    fit = fit_rb(curve.lengths, curve.survival, offset=0.5)
    rows = [[int(m), surv, se] for m, surv, se in
            zip(curve.lengths, curve.survival, curve.stderr)]
    _write_csv(out, ["length", "survival", "stderr"], rows)
    meta = {"resolved_config": config_to_dict(cfg),
            "sdid_version": __version__,
            "fit": {"p": fit.params["p"], "epc": fit.params["epc"],
                    "amplitude": fit.params["amplitude"],
                    "offset": fit.params["offset"],
                    "p_stderr": fit.stderr["p"], "converged": fit.converged}}
    _write_sidecar(out, meta)
    return meta


def run_derive(cfg: ExperimentConfig, out: Path) -> dict:
    # Dimensionless sweep: nu = 1, gamma = 1, tau_c = nu_tauc / nu.
    nu, gamma = 1.0, 1.0
    omega0, omega1 = 500.0, 700.0
    h_s = two_qubit_hamiltonian(omega0, omega1, nu)
    terms = bohr_spectrum(h_s, two_qubit_coupling(a=0.0))
    clusters = cluster_bohr(terms, delta_omega=3.0 * nu)
    bath = BathSpectrum.flat(gamma)

    rows = []
    for x in cfg.nu_tauc:
        tau_c = x / nu
        built = build_cetcg(clusters, bath, tau_c)
        ref = two_qubit_cetcg_reference(nu, tau_c, gamma)
        diff = float(np.max(np.abs(built.superop - ref.superop)))
        coef_plus = 0.5 * gamma * (1.0 + float(sinc(4.0 * nu * tau_c)))
        coef_minus = 0.5 * gamma * (1.0 - float(sinc(4.0 * nu * tau_c)))
        coef_cross = 0.5 * gamma * float(
            np.sin(2.0 * nu * tau_c) * sinc(2.0 * nu * tau_c))
        rows.append([x, coef_plus, coef_minus, coef_cross, diff])
    _write_csv(out, ["nu_tauc", "coef_uncorrelated", "coef_correlated",
                     "coef_cross", "builder_vs_reference_max_abs_diff"], rows)
    meta = {"resolved_config": config_to_dict(cfg),
            "sdid_version": __version__,
            "note": "coefficients of D[I(x)sm], D[Zs(x)sm], and the cross "
                    "sandwich term versus nu*tau_c"}
    _write_sidecar(out, meta)
    return meta


_RUNNERS = {"ramsey": run_ramsey, "cpmg": run_cpmg, "rb": run_rb,
            "derive": run_derive}


def run(cfg: ExperimentConfig) -> dict:
    if cfg.out is None:
        raise ConfigError("field 'out' is required to run an experiment")
    return _RUNNERS[cfg.experiment](cfg, Path(cfg.out))


def _base_config(config_path, **overrides) -> ExperimentConfig:
    if not config_path:
        raise ConfigError("a --config file is required")
    return load_config(config_path, **{key: value for key, value
                                       in overrides.items()
                                       if value is not None})


def _int_list(_ctx, _param, value):
    if value is None:
        return None
    return [int(x) for x in value.split(",")]


def _float_list(_ctx, _param, value):
    if value is None:
        return None
    return [float(x) for x in value.split(",")]


def _str_list(_ctx, _param, value):
    if value is None:
        return None
    return [x.strip() for x in value.split(",")]


class _Group(click.Group):
    """Reports a ConfigError as a one-line error instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Group)
@click.version_option(version=__version__)
def main():
    """Spectator-decay-induced dephasing simulator."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--spectators", "spectator_init", default=None,
              help="Initial spectator bits, e.g. 111.")
@click.option("--tmax-us", type=float, default=None)
@click.option("--points", type=int, default=None)
@click.option("--engines", callback=_str_list, default=None,
              help="Comma list from analytic,lindblad,trajectory.")
@click.option("--ntraj", "n_traj", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", required=True, type=click.Path())
def ramsey(config_path, spectator_init, tmax_us, points, engines, n_traj,
           seed, out):
    """Ramsey coherence decay for a fixed spectator preparation."""
    cfg = _base_config(config_path, experiment="ramsey",
                       spectator_init=spectator_init, tmax_us=tmax_us,
                       points=points, engines=engines, n_traj=n_traj,
                       seed=seed, out=out)
    run(cfg)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--orders", callback=_int_list, default=None,
              help="Comma list of CPMG orders.")
@click.option("--spectators", "spectator_init", default=None)
@click.option("--tmax-us", type=float, default=None)
@click.option("--points", type=int, default=None)
@click.option("--out", required=True, type=click.Path())
def cpmg(config_path, orders, spectator_init, tmax_us, points, out):
    """Effective-coupling CPMG sweep with per-order T2 fits."""
    cfg = _base_config(config_path, experiment="cpmg", orders=orders,
                       spectator_init=spectator_init, tmax_us=tmax_us,
                       points=points, out=out)
    run(cfg)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--init", "spectator_init", default=None,
              type=click.Choice(["zero", "one", "plus"]),
              help="Spectator preparation.")
@click.option("--lengths", callback=_int_list, default=None)
@click.option("--nseq", "n_seq", type=int, default=None)
@click.option("--tgate-ns", "tgate_ns", type=float, default=None)
@click.option("--frame", type=click.Choice(["bare", "experimental"]),
              default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", required=True, type=click.Path())
def rb(config_path, spectator_init, lengths, n_seq, tgate_ns, frame, seed,
       out):
    """Single-qubit randomized benchmarking under spectator decay."""
    cfg = _base_config(config_path, experiment="rb",
                       spectator_init=spectator_init, lengths=lengths,
                       n_seq=n_seq, tgate_ns=tgate_ns, frame=frame,
                       seed=seed, out=out)
    run(cfg)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--nu-tauc", "nu_tauc", callback=_float_list, default=None)
@click.option("--out", required=True, type=click.Path())
def derive(config_path, nu_tauc, out):
    """Sweep nu*tau_c and tabulate coarse-grained generator coefficients."""
    if config_path:
        cfg = _base_config(config_path, experiment="derive", nu_tauc=nu_tauc,
                           out=out)
    else:
        data = {"device": {"control": {"t2_us": 100.0}},
                "experiment": "derive", "out": out}
        if nu_tauc is not None:
            data["nu_tauc"] = nu_tauc
        cfg = config_from_dict(data)
    run(cfg)
    click.echo(f"wrote {out}")


@main.command()
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True))
@click.option("--kind", type=click.Choice(["exponential", "rb"]),
              default="exponential")
@click.option("--out", type=click.Path(), default=None)
def fit(in_path, kind, out):
    """Fit a CSV written by ramsey/cpmg (exponential) or rb.

    An exponential fit is made per engine and CPMG order and listed under
    "fits"; a CPMG order's fit pins the offset to 0, as `sdid cpmg` does.
    """
    with open(in_path) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if kind == "exponential":
        groups: dict = {}
        for r in rows:
            groups.setdefault((r["engine"], r.get("cpmg_n")), []).append(r)
        fits = []
        for (engine, order), group in groups.items():
            times = np.array([float(r["time_us"]) for r in group]) * 1e-6
            mags = np.array([float(r["coh_abs"]) for r in group])
            # Pinned as in `run_cpmg`, so the re-fit reproduces the run's
            # sidecar; Ramsey rows keep the free offset of `run_ramsey`.
            result = fit_exponential(
                times, mags, offset=None if order is None else 0.0)
            entry = {"engine": engine, "model": result.model,
                     "converged": result.converged,
                     "t2_us": result.params["t2"] * 1e6,
                     "params": result.params, "stderr": result.stderr}
            if order is not None:
                entry["cpmg_n"] = int(order)
            fits.append(entry)
        payload = {"fits": fits}
    else:
        lengths = np.array([int(r["length"]) for r in rows])
        survival = np.array([float(r["survival"]) for r in rows])
        # Pinned as in `run_rb`, so the re-fit reproduces the run's sidecar.
        result = fit_rb(lengths, survival, offset=0.5)
        payload = {"model": result.model, "converged": result.converged,
                   "params": result.params, "stderr": result.stderr}
    text = json.dumps(payload, indent=2, sort_keys=True, default=float)
    if out:
        Path(out).write_text(text + "\n")
        click.echo(f"wrote {out}")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
