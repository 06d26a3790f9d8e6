"""JSON experiment configuration: schema validation and unit conversion.

Device parameters follow the measurement conventions of the source data:
qubit times in microseconds (t1_us, t2_us) and couplings as the control
frequency splitting 4*nu in kHz (zz_4nu_khz).  Internally everything is
converted to rates in 1/s and couplings nu in rad/s via
nu = 2 pi * 1e3 * zz_4nu_khz / 4.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .model import DeviceModel, QubitParams, parse_spectator_init

SCHEMA_VERSION = "v1"

VALID_EXPERIMENTS = ("ramsey", "cpmg", "rb", "derive")
VALID_FRAMES = ("bare", "experimental")
VALID_ENGINES = ("analytic", "lindblad", "trajectory")
# Spectator preparations that RB accepts besides N-bit strings ("0", "1" and
# "+" are short forms of the names).
_RB_PREPARATIONS = ("zero", "one", "plus", "0", "1", "+")


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


def _require_int(value, name: str, minimum: int) -> int:
    """An integer >= minimum; 3.0 counts as 3."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < minimum):
        raise ConfigError(f"field {name!r} must be an integer >= {minimum}, "
                          f"got {value!r}")
    return value


def _require_list(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"field {name!r} must be a list, got {value!r}")
    return list(value)


def _require_seed(value) -> int:
    """A Philox key: an integer in [0, 2**128); 3.0 counts as 3."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int)
            or not 0 <= value < 2 ** 128):
        raise ConfigError(f"field 'seed' must be an integer in [0, 2**128), "
                          f"got {value!r}")
    return value


def _qubit_from_dict(d: dict, name: str) -> QubitParams:
    if not isinstance(d, dict):
        raise ConfigError(f"field {name!r} must be an object")
    unknown = set(d) - {"t1_us", "t2_us", "label"}
    if unknown:
        raise ConfigError(f"field {name!r} has unknown keys {sorted(unknown)}")
    t1_us = d.get("t1_us")
    t2_us = d.get("t2_us")
    t1 = _require_positive(t1_us, f"{name}.t1_us") * 1e-6 \
        if t1_us is not None else None
    t2 = _require_positive(t2_us, f"{name}.t2_us") * 1e-6 \
        if t2_us is not None else None
    if t1 is not None and t2 is not None and t2 > 2 * t1 * (1 + 1e-12):
        raise ConfigError(f"field {name!r}: T2 exceeds 2*T1 "
                          f"(t1_us={t1_us}, t2_us={t2_us})")
    return QubitParams.from_times(t1=t1, t2=t2,
                                  label=d.get("label", name))


def device_from_dict(d: dict) -> DeviceModel:
    if not isinstance(d, dict):
        raise ConfigError("field 'device' must be an object")
    if "control" not in d:
        raise ConfigError("field 'device.control' is required")
    control = _qubit_from_dict(d["control"], "device.control")
    spectators = []
    for k, spec in enumerate(d.get("spectators", [])):
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


def device_to_dict(device: DeviceModel) -> dict:
    """Re-emit a device in config units; round-trips the physical rates."""
    def qubit_dict(q: QubitParams) -> dict:
        out = {}
        if q.gamma > 0:
            out["t1_us"] = 1e6 / q.gamma
        if q.gamma_tilde > 0:
            out["t2_us"] = 1e6 / q.gamma_tilde
        if q.label:
            out["label"] = q.label
        return out

    return {
        "control": qubit_dict(device.control),
        "spectators": [
            dict(qubit_dict(q), zz_4nu_khz=4.0 * nu / (2.0 * math.pi * 1e3))
            for q, nu in device.spectators
        ],
    }


@dataclass
class ExperimentConfig:
    device: DeviceModel
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

    @property
    def t_gate(self) -> float:
        return self.tgate_ns * 1e-9


_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)} | {"version"}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Re-emit a config in file form, without `out`; sidecars record this."""
    data = {"version": SCHEMA_VERSION, "device": device_to_dict(cfg.device)}
    for f in fields(ExperimentConfig):
        if f.name not in ("device", "out"):
            value = getattr(cfg, f.name)
            data[f.name] = list(value) if isinstance(value, tuple) else value
    return data


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    version = data.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"field 'version' must be {SCHEMA_VERSION!r}, "
                          f"got {version!r}")
    if "device" not in data:
        raise ConfigError("field 'device' is required")
    device = device_from_dict(data["device"])

    cfg = ExperimentConfig(device=device)
    experiment = data.get("experiment", cfg.experiment)
    if experiment not in VALID_EXPERIMENTS:
        raise ConfigError(f"field 'experiment' must be one of "
                          f"{VALID_EXPERIMENTS}, got {experiment!r}")
    cfg.experiment = experiment

    cfg.spectator_init = str(data.get("spectator_init",
                                      "1" * device.n_spectators))
    if experiment != "derive" and not (
            experiment == "rb" and cfg.spectator_init in _RB_PREPARATIONS):
        try:
            parse_spectator_init(cfg.spectator_init, device.n_spectators)
        except ValueError:
            allowed = f"a {device.n_spectators}-bit 0/1 string"
            if experiment == "rb":
                allowed += " or one of 'zero', 'one', 'plus'"
            raise ConfigError(f"field 'spectator_init' must be {allowed} "
                              f"for {experiment!r}, got "
                              f"{cfg.spectator_init!r}") from None

    if "tmax_us" in data:
        cfg.tmax_us = _require_positive(data["tmax_us"], "tmax_us")
    if "points" in data:
        cfg.points = _require_int(data["points"], "points", 1)
    if experiment == "cpmg" and cfg.points < 4:
        raise ConfigError(f"field 'points' must be >= 4 for 'cpmg' (the T2 "
                          f"fit needs 4 points), got {cfg.points}")
    if "orders" in data:
        cfg.orders = tuple(
            _require_int(n, f"orders[{k}]", 0)
            for k, n in enumerate(_require_list(data["orders"], "orders")))
    if "lengths" in data:
        cfg.lengths = tuple(
            _require_int(m, f"lengths[{k}]", 1)
            for k, m in enumerate(_require_list(data["lengths"], "lengths")))
    if experiment == "rb" and len(set(cfg.lengths)) < 3:
        raise ConfigError(f"field 'lengths' needs at least 3 distinct "
                          f"lengths for 'rb' (the fit needs them), got "
                          f"{list(cfg.lengths)}")
    if "n_seq" in data:
        cfg.n_seq = _require_int(data["n_seq"], "n_seq", 1)
    if "n_traj" in data:
        cfg.n_traj = _require_int(data["n_traj"], "n_traj", 1)
    if "seed" in data:
        cfg.seed = _require_seed(data["seed"])
    if "tgate_ns" in data:
        cfg.tgate_ns = _require_positive(data["tgate_ns"], "tgate_ns")
    frame = data.get("frame", cfg.frame)
    if frame not in VALID_FRAMES:
        raise ConfigError(f"field 'frame' must be one of {VALID_FRAMES}, "
                          f"got {frame!r}")
    cfg.frame = frame
    if "engines" in data:
        engines = tuple(_require_list(data["engines"], "engines"))
        for e in engines:
            if e not in VALID_ENGINES:
                raise ConfigError(f"field 'engines' entry {e!r} not in "
                                  f"{VALID_ENGINES}")
        cfg.engines = engines
    if "nu_tauc" in data:
        cfg.nu_tauc = tuple(
            _require_positive(x, f"nu_tauc[{k}]")
            for k, x in enumerate(_require_list(data["nu_tauc"], "nu_tauc")))
    if "out" in data:
        cfg.out = str(data["out"])
    return cfg


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a JSON config file; `overrides` replace its top-level fields
    before the merged config is validated."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if isinstance(data, dict):
        data = {**data, **overrides}
    return config_from_dict(data)
