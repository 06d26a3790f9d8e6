"""JSON experiment configuration: schema validation and unit conversion.

One table, `_FIELDS`, gives each config field its check and the experiments
that read it.  A config may set any field, and each field it sets is
checked; `config_to_dict`, which a sidecar records, writes only the fields
its experiment reads.  No experiment reads `n_seq` or `out`.  It writes
the `device` object as the config gave it, once checked, so that a run
reruns from its sidecar bit for bit: numbers re-derived from the rates
would not read back to the same rates.

Device parameters follow the measurement conventions of the source data:
qubit times in microseconds (t1_us, t2_us) and couplings as the control
frequency splitting 4*nu in kHz (zz_4nu_khz).  Internally everything is
converted to rates in 1/s and couplings nu in rad/s via
nu = 2 pi * 1e3 * zz_4nu_khz / 4.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .fitting import MIN_LENGTHS, MIN_POINTS
from .model import (DeviceModel, PhysicalityError, QubitParams,
                    parse_spectator_init)
from .rb import FRAMES, branch_weights

SCHEMA_VERSION = "v1"
VALID_ENGINES = ("analytic", "lindblad", "trajectory")


class ConfigError(ValueError):
    """Configuration file failed validation; message names the offending field."""


def nu_from_4nu_khz(zz_4nu_khz: float) -> float:
    """Coupling nu in rad/s from the 4*nu splitting quoted in kHz."""
    return 2.0 * math.pi * 1e3 * zz_4nu_khz / 4.0


def _require_positive(value, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"field {name!r} must be a number")
    if not value > 0:       # NaN fails too
        raise ConfigError(f"field {name!r} must be positive, got {value}")
    if not math.isfinite(value):
        raise ConfigError(f"field {name!r} must be finite, got {value}")
    return float(value)


def _require_int(value, name: str, minimum: int,
                 below: int | None = None) -> int:
    """An integer >= minimum, and < `below`, a power of two, if given;
    3.0 counts as 3."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < minimum or below is not None and value >= below):
        rule = (f">= {minimum}" if below is None
                else f"in [{minimum}, 2**{below.bit_length() - 1})")
        raise ConfigError(f"field {name!r} must be an integer {rule}, "
                          f"got {value!r}")
    return value


def _require_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"field {name!r} must be a list, got {value!r}")
    return list(value)


def _require_entries(value, name: str, entry, distinct=False) -> tuple:
    """A non-empty list, entry k checked by `entry(value, "name[k]")`; with
    `distinct`, no entry may repeat."""
    entries = tuple(entry(e, f"{name}[{k}]")
                    for k, e in enumerate(_require_list(value, name)))
    if not entries:
        raise ConfigError(f"field {name!r} must not be empty")
    if distinct:
        for k, e in enumerate(entries):
            if e in entries[:k]:
                raise ConfigError(f"field {name!r} repeats entry {e!r}")
    return entries


def _require_str(value, name: str, kind: str = "a string") -> str:
    if not isinstance(value, str):
        raise ConfigError(f"field {name!r} must be {kind}, got {value!r}")
    return value


def _require_choice(value, name: str, choices: tuple):
    if value not in choices:
        raise ConfigError(f"field {name!r} must be one of {choices}, "
                          f"got {value!r}")
    return value


def _require_engine(value, _name: str) -> str:
    if value not in VALID_ENGINES:
        raise ConfigError(f"field 'engines' entry {value!r} not in "
                          f"{VALID_ENGINES}")
    return value


def _qubit_from_dict(d: dict, name: str) -> QubitParams:
    if not isinstance(d, dict):
        raise ConfigError(f"field {name!r} must be an object")
    unknown = set(d) - {"t1_us", "t2_us", "label"}
    if unknown:
        raise ConfigError(f"field {name!r} has unknown keys {sorted(unknown)}")
    label = _require_str(d.get("label", name), f"{name}.label")
    t1, t2 = (None if d.get(key) is None
              else _require_positive(d[key], f"{name}.{key}") * 1e-6
              for key in ("t1_us", "t2_us"))
    try:
        return QubitParams.from_times(t1=t1, t2=t2, label=label)
    except PhysicalityError as exc:
        raise ConfigError(f"field {name!r}: {exc}") from None


def device_from_dict(d: dict) -> DeviceModel:
    if not isinstance(d, dict):
        raise ConfigError("field 'device' must be an object")
    if "control" not in d:
        raise ConfigError("field 'device.control' is required")
    control = _qubit_from_dict(d["control"], "device.control")
    spectators = []
    for k, spec in enumerate(_require_list(d.get("spectators", []),
                                           "device.spectators")):
        name = f"device.spectators[{k}]"
        if not isinstance(spec, dict):
            raise ConfigError(f"field {name!r} must be an object")
        if "zz_4nu_khz" not in spec:
            raise ConfigError(f"field {name!r} is missing 'zz_4nu_khz'")
        nu = nu_from_4nu_khz(
            _require_positive(spec["zz_4nu_khz"], f"{name}.zz_4nu_khz"))
        qubit = _qubit_from_dict(
            {kk: v for kk, v in spec.items() if kk != "zz_4nu_khz"}, name)
        spectators.append((qubit, nu))
    return DeviceModel(control=control, spectators=tuple(spectators))


@dataclass
class ExperimentConfig:
    device: DeviceModel | None = None
    experiment: str = "ramsey"
    spectator_init: str = ""
    tmax_us: float | None = None
    points: int = 101
    orders: tuple[int, ...] = (0,)
    lengths: tuple[int, ...] = (1, 10, 25, 50, 100, 200, 400)
    n_seq: int = 30
    n_traj: int = 100_000
    seed: int = 0
    tgate_ns: float = 50.0
    frame: str = "experimental"
    engines: tuple[str, ...] = ("analytic",)
    nu_tauc: tuple[float, ...] = (0.001, 0.1, 1.0, 10.0, 1000.0)
    out: str | None = None
    # The `device` object as the config gave it, which a sidecar records;
    # not a field of a config file.
    device_given: dict | None = field(default=None, repr=False)

    @property
    def t_gate(self) -> float:
        return self.tgate_ns * 1e-9


# Each config field: the check of a given value, which returns what the
# config holds, and the experiments that read the field.
_FIELDS = {
    "device": (lambda value, _: device_from_dict(value),
               ("ramsey", "cpmg", "rb")),
    "spectator_init": (_require_str, ("ramsey", "cpmg", "rb")),
    "tmax_us": (_require_positive, ("ramsey", "cpmg")),
    "points": (partial(_require_int, minimum=1), ("ramsey", "cpmg")),
    "orders": (partial(_require_entries, distinct=True,
                       entry=partial(_require_int, minimum=0)), ("cpmg",)),
    "lengths": (partial(_require_entries,
                        entry=partial(_require_int, minimum=1)), ("rb",)),
    "n_seq": (partial(_require_int, minimum=1), ()),
    "n_traj": (partial(_require_int, minimum=2), ("ramsey",)),
    "seed": (partial(_require_int, minimum=0, below=2 ** 128), ("ramsey",)),
    "tgate_ns": (_require_positive, ("rb",)),
    "frame": (partial(_require_choice, choices=FRAMES), ("rb",)),
    "engines": (partial(_require_entries, entry=_require_engine,
                        distinct=True), ("ramsey",)),
    "nu_tauc": (partial(_require_entries, entry=_require_positive),
                ("derive",)),
    "out": (partial(_require_str, kind="a path string"), ()),
}
VALID_EXPERIMENTS = tuple(dict.fromkeys(
    experiment for _, readers in _FIELDS.values() for experiment in readers))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Re-emit a config in file form: its version, its experiment, and each
    set (not None) field that the experiment reads.  Sidecars record this,
    and `config_from_dict` loads it back."""
    data = {"version": SCHEMA_VERSION, "experiment": cfg.experiment}
    for name, (_, readers) in _FIELDS.items():
        value = getattr(cfg, name)
        if cfg.experiment in readers and value is not None:
            data[name] = (cfg.device_given if name == "device"
                          else list(value) if isinstance(value, tuple)
                          else value)
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    """Check a config in file form and fill in its defaults.  Every given
    field is checked; `device` is required, and `spectator_init` defaults
    to all 1s and is checked against it, only where the experiment reads
    them."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_FIELDS) - {"version", "experiment"}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"field 'version' must be {SCHEMA_VERSION!r}, "
                          f"got {version!r}")
    experiment = _require_choice(data.get("experiment", "ramsey"),
                                 "experiment", VALID_EXPERIMENTS)
    reads = {name for name, (_, readers) in _FIELDS.items()
             if experiment in readers}
    if "device" in reads and "device" not in data:
        raise ConfigError("field 'device' is required")
    cfg = ExperimentConfig(
        experiment=experiment, device_given=copy.deepcopy(data.get("device")),
        **{name: check(data[name], name)
           for name, (check, _) in _FIELDS.items() if name in data})

    if "spectator_init" in reads:
        n = cfg.device.n_spectators
        if "spectator_init" not in data:
            cfg.spectator_init = "1" * n
        # RB takes its own preparations; the other experiments take N bits.
        check = branch_weights if experiment == "rb" else parse_spectator_init
        try:
            check(cfg.spectator_init, n)
        except ValueError:
            allowed = f"a {n}-bit 0/1 string"
            if experiment == "rb":
                allowed += " or one of 'zero', 'one', 'plus'"
            raise ConfigError(f"field 'spectator_init' must be {allowed} "
                              f"for {experiment!r}, got "
                              f"{cfg.spectator_init!r}") from None
    if experiment == "cpmg" and cfg.points < MIN_POINTS:
        raise ConfigError(f"field 'points' must be >= {MIN_POINTS} for "
                          f"'cpmg' (the T2 fit needs {MIN_POINTS} points), "
                          f"got {cfg.points}")
    if experiment == "rb" and len(set(cfg.lengths)) < MIN_LENGTHS:
        raise ConfigError(f"field 'lengths' needs at least {MIN_LENGTHS} "
                          f"distinct lengths for 'rb' (the fit needs them), "
                          f"got {list(cfg.lengths)}")
    return cfg


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a JSON config file; `overrides` replace its top-level fields
    before the merged config is validated."""
    name = f"config file '{path}'"
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{name} is not a file" if path.exists()
                          else f"{name} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{name} cannot be read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name} is not valid JSON: {exc}") from None
    if isinstance(data, dict):
        data = {**data, **overrides}
    return config_from_dict(data)
