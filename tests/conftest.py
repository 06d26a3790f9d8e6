"""Shared device fixtures built from measured-style parameters.

Device A: single spectator, control T2 = 127 us, spectator T1 = 107 us,
4*nu = 45 kHz.  Device B: three spectators, control T1/T2 = 141/241 us,
spectator T1 = {150, 218, 122} us, T2 = {258, 400, 175} us,
4*nu = {47, 48, 41} kHz.  Devices B4 and B5 add a fourth spectator
(T1/T2 = 180/300 us, 44 kHz) and a fifth (T1/T2 = 200/330 us, 46 kHz).
"""

import numpy as np
import pytest

from sdid import DeviceModel, QubitParams, nu_from_4nu_khz


@pytest.fixture(scope="session")
def device_a() -> DeviceModel:
    control = QubitParams.from_times(t2=127e-6, label="control")
    spectator = QubitParams.from_times(t1=107e-6, label="s1")
    return DeviceModel(control=control,
                       spectators=((spectator, nu_from_4nu_khz(45.0)),))


@pytest.fixture(scope="session")
def device_b() -> DeviceModel:
    control = QubitParams.from_times(t1=141e-6, t2=241e-6, label="control")
    t1s = (150e-6, 218e-6, 122e-6)
    t2s = (258e-6, 400e-6, 175e-6)
    khz = (47.0, 48.0, 41.0)
    spectators = tuple(
        (QubitParams.from_times(t1=t1, t2=t2, label=f"s{k + 1}"),
         nu_from_4nu_khz(f))
        for k, (t1, t2, f) in enumerate(zip(t1s, t2s, khz)))
    return DeviceModel(control=control, spectators=spectators)


def _with_spectators(device, params) -> DeviceModel:
    extra = tuple(
        (QubitParams.from_times(t1=t1, t2=t2,
                                label=f"s{device.n_spectators + k + 1}"),
         nu_from_4nu_khz(f))
        for k, (t1, t2, f) in enumerate(params))
    return DeviceModel(control=device.control,
                       spectators=device.spectators + extra)


@pytest.fixture(scope="session")
def device_b4(device_b) -> DeviceModel:
    return _with_spectators(device_b, [(180e-6, 300e-6, 44.0)])


@pytest.fixture(scope="session")
def device_b5(device_b4) -> DeviceModel:
    return _with_spectators(device_b4, [(200e-6, 330e-6, 46.0)])


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
