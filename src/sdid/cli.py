"""Command-line surface: experiment orchestration and CSV/JSON output.

Subcommands mirror the experiments: `ramsey` (coherence traces from up to
three engines), `cpmg` (exact coherence of CPMG trains, with a T2 fit per
order), `rb` (Clifford-level randomized benchmarking, the exact sequence
average), `derive` (coarse-graining-time sweep of the two-qubit
master-equation coefficients), and `fit` (re-fit a CSV produced by the other
subcommands).

Every run writes a CSV plus a JSON sidecar (resolved config, fit records,
version).  Each experiment's runner only computes: it returns the CSV
header and rows and the sidecar fields of its own, and `run` adds the
resolved config and version and writes both files.  Identical config and
seed give byte-identical CSV output, and `_write` writes every file,
rewriting an existing one in place.  A configuration error, or a file that
cannot be read or written, ends the command with a one-line message that
names the field or the path.

One function reads a result table: `_fits`.  `run` calls it on the CSV text
it writes, and `fit` on the text it reads back, so the `fits` of a `ramsey`,
`cpmg` or `rb` sidecar are what `sdid fit` prints for its CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import errno
import io
import json
import os
import stat

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
from .derivations import (bohr_spectrum, build_cetcg, cluster_bohr,
                          two_qubit_cetcg_reference, two_qubit_coupling,
                          two_qubit_hamiltonian, two_qubit_kossakowski)
from .fitting import fit_exponential, fit_rb
from .model import (build_liouvillian, control_coherence, lindblad_trace,
                    parse_spectator_init, propagate, ramsey_initial_state)
from .rb import average_survival, simulate_rb
from .trajectory import EnsembleSpec

# What a runner returns: CSV header, CSV rows, and its own sidecar fields.
Table = tuple[list[str], list[list], dict]


def _json(payload: dict) -> str:
    """The JSON text of a sidecar or of a `fit` result, with null for each
    non-finite number, which Python would write as NaN or Infinity."""
    finite = json.loads(json.dumps(payload, default=float),
                        parse_constant=lambda _: None)
    return json.dumps(finite, indent=2, sort_keys=True, allow_nan=False)


def _fits(header: list[str], rows: list[list[str]]) -> list[dict]:
    """Fit records, one per curve, of a table: `header` and `rows` of CSV text.

    A `length` column makes it one RB curve, a `time_us` column one curve
    per engine and CPMG order (a pulse train decays to zero, so its offset
    is pinned to 0), and any other table has no fit.  A record holds the
    `FitResult` fields, plus `engine`, `t2_us` and `cpmg_n` (CPMG only) for
    an exponential curve.  A missing or unreadable column, or a curve that
    cannot be fitted, raises ValueError.
    """
    def column(name, convert):
        if name not in header:
            raise ValueError(f"no column {name!r}")
        k = header.index(name)
        try:
            return [convert(row[k]) for row in rows]
        except (IndexError, ValueError):
            raise ValueError(f"column {name!r} has an entry that is not "
                             f"{convert.__name__}") from None

    if "length" in header:
        fit = fit_rb(column("length", int), column("survival", float))
        return [dataclasses.asdict(fit)]
    if "time_us" not in header:
        return []
    engines = column("engine", str)
    orders = (column("cpmg_n", int) if "cpmg_n" in header
              else [None] * len(engines))
    groups: dict = {}
    for key, t_us, mag in zip(zip(engines, orders), column("time_us", float),
                              column("coh_abs", float)):
        groups.setdefault(key, []).append((t_us, mag))
    records = []
    for (engine, order), group in groups.items():
        t_us, mags = np.array(group).T
        try:
            fit = fit_exponential(t_us * 1e-6, mags,
                                  offset=None if order is None else 0.0)
        except ValueError as exc:
            name = f"engine {engine!r}" + (
                "" if order is None else f", cpmg_n {order}")
            raise ValueError(f"{name}: {exc}") from None
        record = {"engine": engine, "t2_us": fit.params["t2"] * 1e6,
                  **dataclasses.asdict(fit)}
        if order is not None:
            record["cpmg_n"] = order
        records.append(record)
    return records


def run_ramsey(cfg: ExperimentConfig) -> Table:
    device, s = cfg.device, cfg.spectator_init
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

    fields: dict = {"cross_checks": {}}
    by_engine = {engine: trace.values for engine, trace in results}
    for other in ("lindblad", "trajectory"):
        if "analytic" in by_engine and other in by_engine:
            diff = by_engine["analytic"] - by_engine[other]
            fields["cross_checks"][f"analytic_vs_{other}_max_abs_diff"] = (
                float(np.max(np.abs(diff))))
    return header, rows, fields


def run_cpmg(cfg: ExperimentConfig) -> Table:
    device, s = cfg.device, cfg.spectator_init
    rate = analytic.heuristic_rate(device, s)
    if not (cfg.tmax_us or rate > 0):
        raise ConfigError("field 'tmax_us' is required when nothing decays")
    tmax = cfg.tmax_us * 1e-6 if cfg.tmax_us else 5.0 / rate
    times = np.linspace(0.0, tmax, cfg.points)

    rows = [[n, t * 1e6, v.real, v.imag, abs(v), "analytic"]
            for n in cfg.orders
            for t, v in zip(times, analytic.ramsey_trace(
                device, s, times, cpmg_order=n).values)]
    header = ["cpmg_n", "time_us", "coh_re", "coh_im", "coh_abs", "engine"]
    # T2 is not monotone in the order: report the window with the fits.
    fields = {"tmax_us": tmax * 1e6,
              "tmax_scaling": "5x heuristic decay time unless tmax_us given"}
    return header, rows, fields


def run_rb(cfg: ExperimentConfig) -> Table:
    # The exact sequence average samples nothing, so `n_seq` and `seed` are
    # not read.
    curve = average_survival(cfg.device, cfg.spectator_init, cfg.lengths,
                             t_gate=cfg.t_gate, frame=cfg.frame)
    rows = [[int(m), surv] for m, surv in zip(curve.lengths, curve.survival)]
    return ["length", "survival"], rows, {}


def run_derive(cfg: ExperimentConfig) -> Table:
    # Dimensionless sweep: nu = 1, gamma = 1, tau_c = nu_tauc / nu.
    nu, gamma = 1.0, 1.0
    omega0, omega1 = 500.0, 700.0
    h_s = two_qubit_hamiltonian(omega0, omega1, nu)
    terms = bohr_spectrum(h_s, two_qubit_coupling(a=0.0))
    clusters = cluster_bohr(terms, delta_omega=3.0 * nu)

    rows = []
    for x in cfg.nu_tauc:
        tau_c = x / nu
        built = build_cetcg(clusters, gamma, tau_c)
        ref = two_qubit_cetcg_reference(nu, tau_c, gamma)
        diff = float(np.max(np.abs(built.superop - ref)))
        k = two_qubit_kossakowski(nu, tau_c, gamma)
        rows.append([x, k[0, 0].real, k[1, 1].real, k[0, 1].imag, diff])
    header = ["nu_tauc", "coef_uncorrelated", "coef_correlated",
              "coef_cross", "builder_vs_reference_max_abs_diff"]
    fields = {"note": "coefficients of D[I(x)sm], D[Zs(x)sm], and the cross "
                      "sandwich term versus nu*tau_c"}
    return header, rows, fields


_RUNNERS = {"ramsey": run_ramsey, "cpmg": run_cpmg, "rb": run_rb,
            "derive": run_derive}


def _write(path, text: str) -> None:
    """Write `text` to `path`, replacing the file.  Every output file is
    written here; a failure is a one-line error that names the path.

    The file is rewritten in place: opened without truncation, written,
    then cut to the written length.  Truncating to zero first, as
    `open(path, "w")` does, makes ext4 (default `auto_da_alloc`) start a
    flush when the file is closed, and the next truncating rewrite of it
    waits for that flush.  On a 2-vCPU ext4 host one rewrite of a 2 KB file
    took a median 70 us truncating and 11 us in place, and the benchmark's
    `rb_clifford` repetition (three `sdid rb` runs, each writing a CSV and
    a sidecar) took 3.0-3.2 ms truncating and 2.4 ms in place.  The cost:
    a rewrite cut short by a crash can leave old bytes after the new ones,
    where a truncating write leaves an empty or partial file; neither
    fsyncs, and every output can be regenerated from its sidecar.  Only a
    regular file is cut: a device or pipe, such as /dev/null, has no old
    bytes, and `ftruncate` on it fails.  A new file gets the mode
    `open(path, "w")` gives it, 0o666 less the umask.
    """
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", newline="\n") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()
    except OSError as exc:
        raise ConfigError(f"cannot write '{path}': {exc.strerror}") from None


def _check_out(path: str) -> None:
    """Raise, before anything runs, the error `_write` would give for a CSV
    or sidecar path that is a directory or lies in a missing directory."""
    folder = os.path.dirname(path) or "."
    for target in (path, f"{path}.meta.json"):
        if os.path.isdir(target):
            code = errno.EISDIR
        elif not os.path.isdir(folder):
            code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
        elif not target:
            code = errno.ENOENT
        else:
            continue
        raise ConfigError(f"cannot write '{target}': {os.strerror(code)}")


def run(cfg: ExperimentConfig) -> dict:
    """Run the experiment, write its CSV and sidecar; returns the sidecar."""
    if cfg.out is None:
        raise ConfigError("field 'out' is required to run an experiment")
    _check_out(cfg.out)
    header, rows, fields = _RUNNERS[cfg.experiment](cfg)
    # `str` gives a float's shortest round-trip text; the csv module would
    # take its `repr`, which numpy 2 spells np.float64(x).
    rows = [[str(x) for x in row] for row in rows]
    try:
        fits = _fits(header, rows)
    except ValueError as exc:
        fields.update(fits=[], fit_error=str(exc))
    else:
        if fits:
            fields["fits"] = fits
    meta = {"resolved_config": config_to_dict(cfg),
            "sdid_version": __version__, **fields}
    table = io.StringIO()
    csv.writer(table, lineterminator="\n").writerows([header] + rows)
    _write(cfg.out, table.getvalue())
    _write(f"{cfg.out}.meta.json", _json(meta) + "\n")
    return meta


def _run(experiment: str, config_path, overrides: dict) -> None:
    """Run `experiment` on the config file, each option given on the command
    line replacing the field of its name, and write its files."""
    given = {key: value for key, value in overrides.items()
             if value is not None}
    given["experiment"] = experiment
    # Only `derive`, which reads no device, runs without a file.
    cfg = (config_from_dict(given) if config_path is None
           else load_config(config_path, **given))
    run(cfg)
    click.echo(f"wrote {cfg.out}")


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
@click.option("--spectators", "spectator_init",
              help="Initial spectator bits, e.g. 111.")
@click.option("--tmax-us", type=float)
@click.option("--points", type=int)
@click.option("--engines", callback=_comma_list,
              help="Comma list from analytic,lindblad,trajectory.")
@click.option("--ntraj", "n_traj", type=int)
@click.option("--seed", type=int)
@click.option("--out", required=True, type=click.Path())
def ramsey(config_path, **overrides):
    """Ramsey coherence decay for a fixed spectator preparation.

    The CSV column stderr_abs is empty for the analytic and lindblad
    engines.  For trajectory it is the standard error of the complex mean;
    to first order it bounds the standard error of coh_abs from above.
    """
    _run("ramsey", config_path, overrides)


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--orders", callback=_comma_list,
              help="Comma list of CPMG orders.")
@click.option("--spectators", "spectator_init")
@click.option("--tmax-us", type=float)
@click.option("--points", type=int)
@click.option("--out", required=True, type=click.Path())
def cpmg(config_path, **overrides):
    """Exact CPMG coherence over pulse orders with per-order T2 fits."""
    _run("cpmg", config_path, overrides)


@main.command()
@click.option("--config", "config_path", type=click.Path(), required=True)
@click.option("--init", "spectator_init",
              help="Spectator preparation: zero/0, one/1, plus/+ or N bits.")
@click.option("--lengths", callback=_comma_list)
@click.option("--tgate-ns", type=float)
@click.option("--frame", help="bare or experimental.")
@click.option("--out", required=True, type=click.Path())
def rb(config_path, **overrides):
    """Single-qubit randomized benchmarking under spectator decay."""
    _run("rb", config_path, overrides)


@main.command()
@click.option("--config", "config_path", type=click.Path())
@click.option("--nu-tauc", callback=_comma_list)
@click.option("--out", required=True, type=click.Path())
def derive(config_path, **overrides):
    """Sweep nu*tau_c and tabulate coarse-grained generator coefficients."""
    _run("derive", config_path, overrides)


@main.command()
@click.option("--in", "in_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path())
def fit(in_path, out):
    """Fit a CSV written by ramsey, cpmg or rb; its header says which fit.

    Prints the `fits` records that the run's own sidecar holds: one per
    engine and CPMG order, one for an RB CSV, and none for a derive CSV.
    """
    try:
        with open(in_path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            rows = [row for row in reader if row]
        fits = _fits(header, rows)
    except (OSError, ValueError) as exc:
        # A file that is not UTF-8 text raises UnicodeDecodeError, a
        # ValueError.
        raise click.ClickException(f"{in_path}: {exc}") from None
    text = _json({"fits": fits})
    if out:
        _write(out, text + "\n")
        click.echo(f"wrote {out}")
    else:
        click.echo(text)


if __name__ == "__main__":
    main()
