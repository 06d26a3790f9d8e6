"""Command-line surface: experiment orchestration and CSV/JSON output.

Subcommands mirror the experiments: `ramsey` (coherence traces from up to
three engines), `cpmg` (exact coherence of CPMG trains, with a T2 fit per
order), `rb` (Clifford-level randomized benchmarking, the exact sequence
average), `derive` (coarse-graining-time sweep of the two-qubit
master-equation coefficients), and `fit` (re-fit a CSV produced by the other
subcommands).

Every run writes a CSV plus a JSON sidecar (resolved config, fitted
parameters, seed, version).  Each experiment's runner only computes: it
returns the CSV header and rows and the sidecar fields of its own, and
`run` adds the resolved config and version and writes both files.
Identical config and seed give byte-identical CSV output.  A configuration
error ends the command with a one-line message that names the field.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import click
import numpy as np

from . import __version__
from . import analytic, trajectory
# The traced benchmark run (perfbench/tracing.py) points build_liouvillian,
# control_coherence, parse_spectator_init, propagate, ramsey_initial_state,
# fit_exponential, fit_rb, simulate_rb and load_config here at their traced
# originals, and fails unless each name is still the object imported below.
# So they stay, even those this module does not call.
from .config import (ConfigError, ExperimentConfig, config_from_dict,
                     config_to_dict, load_config)
from .derivations import (BathSpectrum, bohr_spectrum, build_cetcg,
                          cluster_bohr, sinc, two_qubit_cetcg_reference,
                          two_qubit_coupling, two_qubit_hamiltonian)
from .fitting import fit_exponential, fit_rb
from .model import (build_liouvillian, control_coherence, lindblad_trace,
                    parse_spectator_init, propagate, ramsey_initial_state)
from .rb import average_survival, simulate_rb
from .trajectory import EnsembleSpec

# What a runner returns: CSV header, CSV rows, and its own sidecar fields.
Table = tuple[list[str], list[list], dict]


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _json(payload: dict) -> str:
    """The JSON text of a sidecar or of a `fit` result."""
    return json.dumps(payload, indent=2, sort_keys=True, default=float)


def run_ramsey(cfg: ExperimentConfig) -> Table:
    device = cfg.device
    s = parse_spectator_init(cfg.spectator_init, device.n_spectators)
    tmax = (cfg.tmax_us or 500.0) * 1e-6
    times = np.linspace(0.0, tmax, cfg.points)
    ens = EnsembleSpec(n_traj=cfg.n_traj, seed=cfg.seed)
    # One trace call per engine, all of one shape.  The engine functions are
    # looked up at call time, so a patched one is the one called.
    traces = {"analytic": lambda: analytic.ramsey_trace(device, s, times),
              "lindblad": lambda: lindblad_trace(device, s, times),
              "trajectory": lambda: trajectory.ensemble_trace(
                  device, s, times, ens)}
    results = [(engine, traces[engine]()) for engine in cfg.engines]
    rows = [[t * 1e6, v.real, v.imag, abs(v), engine,
             "" if tr.stderr is None else tr.stderr[k]]
            for engine, tr in results
            for k, (t, v) in enumerate(zip(times, tr.values))]
    header = ["time_us", "coh_re", "coh_im", "coh_abs", "engine",
              "stderr_abs"]

    fields: dict = {"fits": {}, "cross_checks": {}}
    by_engine = {engine: trace.values for engine, trace in results}
    for engine, values in by_engine.items():
        mags = np.abs(values)
        if np.all(mags > 0) and times.size >= 4:
            fit = fit_exponential(times, mags)
            fields["fits"][engine] = {"t2_us": fit.params["t2"] * 1e6,
                                      "rate_per_s": fit.params["rate"],
                                      "converged": fit.converged}
    for other in ("lindblad", "trajectory"):
        if "analytic" in by_engine and other in by_engine:
            diff = by_engine["analytic"] - by_engine[other]
            fields["cross_checks"][f"analytic_vs_{other}_max_abs_diff"] = (
                float(np.max(np.abs(diff))))
    return header, rows, fields


def run_cpmg(cfg: ExperimentConfig) -> Table:
    device = cfg.device
    s = parse_spectator_init(cfg.spectator_init, device.n_spectators)
    tmax = (cfg.tmax_us * 1e-6 if cfg.tmax_us
            else 5.0 / analytic.heuristic_rate(device, s))
    times = np.linspace(0.0, tmax, cfg.points)

    def compute(n):
        values = analytic.ramsey_trace(device, s, times, cpmg_order=n).values
        # The coherence decays to zero; a free offset lets the fit trade
        # the rate against a floor that the model does not have.
        fit = fit_exponential(times, np.abs(values), offset=0.0)
        return n, values, fit

    results = [compute(n) for n in cfg.orders]
    rows = [[n, t * 1e6, v.real, v.imag, abs(v), "analytic", ""]
            for n, values, _ in results for t, v in zip(times, values)]
    header = ["cpmg_n", "time_us", "coh_re", "coh_im", "coh_abs", "engine",
              "stderr_abs"]
    fits = {str(n): fit for n, _, fit in results}
    fields = {"fitted_t2_us": {n: f.params["t2"] * 1e6
                               for n, f in fits.items()},
              "fit_converged": {n: f.converged for n, f in fits.items()},
              # T2 is not monotone in the order: report window and residuals.
              "fit_residual": {n: f.residual_norm for n, f in fits.items()},
              "tmax_us": tmax * 1e6,
              "tmax_scaling": "5x heuristic decay time unless tmax_us given"}
    return header, rows, fields


def run_rb(cfg: ExperimentConfig) -> Table:
    # The exact sequence average samples nothing, so `n_seq` and `seed` are
    # not read and the `stderr` column stays empty.
    curve = average_survival(cfg.device, cfg.spectator_init, cfg.lengths,
                             t_gate=cfg.t_gate, frame=cfg.frame)
    # The model has no state-preparation or measurement error, so the
    # survival decays to 1/2.
    fit = fit_rb(curve.lengths, curve.survival, offset=0.5)
    rows = [[int(m), surv, ""]
            for m, surv in zip(curve.lengths, curve.survival)]
    fields = {"fit": {"p": fit.params["p"], "epc": fit.params["epc"],
                      "amplitude": fit.params["amplitude"],
                      "offset": fit.params["offset"],
                      "p_stderr": fit.stderr["p"], "converged": fit.converged}}
    return ["length", "survival", "stderr"], rows, fields


def run_derive(cfg: ExperimentConfig) -> Table:
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
    header = ["nu_tauc", "coef_uncorrelated", "coef_correlated",
              "coef_cross", "builder_vs_reference_max_abs_diff"]
    fields = {"note": "coefficients of D[I(x)sm], D[Zs(x)sm], and the cross "
                      "sandwich term versus nu*tau_c"}
    return header, rows, fields


_RUNNERS = {"ramsey": run_ramsey, "cpmg": run_cpmg, "rb": run_rb,
            "derive": run_derive}


def run(cfg: ExperimentConfig) -> dict:
    """Run the experiment, write its CSV and sidecar; returns the sidecar."""
    if cfg.out is None:
        raise ConfigError("field 'out' is required to run an experiment")
    out = Path(cfg.out)
    header, rows, fields = _RUNNERS[cfg.experiment](cfg)
    meta = {"resolved_config": config_to_dict(cfg),
            "sdid_version": __version__, **fields}
    with open(out, "w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [header] + [[_fmt(x) for x in row] for row in rows])
    out.with_suffix(out.suffix + ".meta.json").write_text(_json(meta) + "\n")
    return meta


def _base_config(config_path, **overrides) -> ExperimentConfig:
    if not config_path:
        raise ConfigError("a --config file is required")
    return load_config(config_path, **{key: value for key, value
                                       in overrides.items()
                                       if value is not None})


# Entry type of each comma-list option.
_LIST_ENTRIES = {"engines": str, "orders": int, "lengths": int,
                 "nu_tauc": float}


def _comma_list(_ctx, param, value):
    """Split a comma list option into entries of its type."""
    if value is None:
        return None
    convert = _LIST_ENTRIES[param.name]
    try:
        return [convert(x.strip()) for x in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma list of "
                                 f"{convert.__name__} values") from None


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
@click.option("--engines", callback=_comma_list, default=None,
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
@click.option("--orders", callback=_comma_list, default=None,
              help="Comma list of CPMG orders.")
@click.option("--spectators", "spectator_init", default=None)
@click.option("--tmax-us", type=float, default=None)
@click.option("--points", type=int, default=None)
@click.option("--out", required=True, type=click.Path())
def cpmg(config_path, orders, spectator_init, tmax_us, points, out):
    """Exact CPMG coherence over pulse orders with per-order T2 fits."""
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
@click.option("--lengths", callback=_comma_list, default=None)
@click.option("--nseq", "n_seq", type=int, default=None,
              help="Accepted and not read: the exact average samples "
                   "no sequences.")
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
@click.option("--nu-tauc", "nu_tauc", callback=_comma_list, default=None)
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
    header = reader.fieldnames or []

    def column(name, convert):
        if name not in header:
            raise click.ClickException(f"{in_path}: no column {name!r}")
        try:
            return [convert(r[name]) for r in rows]
        except (TypeError, ValueError):
            raise click.ClickException(
                f"{in_path}: column {name!r} has an entry that is not "
                f"{convert.__name__}") from None

    if kind == "exponential":
        orders = (column("cpmg_n", int) if "cpmg_n" in header
                  else [None] * len(rows))
        groups: dict = {}
        for key, t_us, mag in zip(zip(column("engine", str), orders),
                                  column("time_us", float),
                                  column("coh_abs", float)):
            groups.setdefault(key, []).append((t_us, mag))
        fits = []
        for (engine, order), group in groups.items():
            t_us, mags = np.array(group).T
            # Pinned as in `run_cpmg`, so the re-fit reproduces the run's
            # sidecar; Ramsey rows keep the free offset of `run_ramsey`.
            try:
                result = fit_exponential(
                    t_us * 1e-6, mags, offset=None if order is None else 0.0)
            except ValueError as exc:
                name = f"engine {engine!r}" + (
                    "" if order is None else f", cpmg_n {order}")
                raise click.ClickException(f"{name}: {exc}") from None
            entry = {"engine": engine, "model": result.model,
                     "converged": result.converged,
                     "t2_us": result.params["t2"] * 1e6,
                     "params": result.params, "stderr": result.stderr}
            if order is not None:
                entry["cpmg_n"] = order
            fits.append(entry)
        payload = {"fits": fits}
    else:
        lengths = np.array(column("length", int))
        survival = np.array(column("survival", float))
        # Pinned as in `run_rb`, so the re-fit reproduces the run's sidecar.
        try:
            result = fit_rb(lengths, survival, offset=0.5)
        except ValueError as exc:
            raise click.ClickException(f"{in_path}: {exc}") from None
        payload = {"model": result.model, "converged": result.converged,
                   "params": result.params, "stderr": result.stderr}
    text = _json(payload)
    if out:
        Path(out).write_text(text + "\n")
        click.echo(f"wrote {out}")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
