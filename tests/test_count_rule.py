"""One count rule (fbl_core._check_index) at every public entry point
that takes a count: a count that is not an integer raises ValueError
naming it, and a numpy integer gives the same answer as the Python int.
Seeds follow the same integer rule over [0, 2^64)."""

import dataclasses
import math

import numpy as np
import pytest

from elid_urllc.channel_model import SystemConfig, sample_scenario, stream_words
from elid_urllc.experiments import SweepSpec, format_csv, run_sweep
from elid_urllc.fbl_core import (
    ShortPacketParams,
    min_blocklength,
    min_power_for_target,
    reliability_margin,
)


def _sweep(num_seeds=2, n_vehicles=3, budget=200):
    spec = SweepSpec(
        name="t",
        base_config=SystemConfig(),
        swept_variable="symbol_budget",
        values=(budget,),
        solver="equal_allocation",
        outputs=("total_energy",),
        num_seeds=num_seeds,
        n_vehicles=n_vehicles,
    )
    return run_sweep(spec)


# (entry point, count, a valid value, the call with that count set)
CALLS = [
    ("reliability_margin", "blocklength", 33, lambda c: reliability_margin(12.5, c, 160)),
    ("reliability_margin", "payload_bits", 160, lambda c: reliability_margin(12.5, 33, c)),
    ("min_power_for_target", "blocklength", 33,
     lambda c: min_power_for_target(1.5, c, 160, 6.0)),
    ("min_power_for_target", "payload_bits", 160,
     lambda c: min_power_for_target(1.5, 33, c, 6.0)),
    ("min_blocklength", "payload_bits", 160, lambda c: min_blocklength(400.0, c, 200)),
    ("min_blocklength", "max_symbols", 200, lambda c: min_blocklength(400.0, 160, c)),
    ("ShortPacketParams", "payload_bits", 160, lambda c: ShortPacketParams(c, 33, 12.5)),
    ("ShortPacketParams", "blocklength", 33, lambda c: ShortPacketParams(160, c, 12.5)),
    ("SystemConfig", "payload_bits", 160, lambda c: SystemConfig(payload_bits=c)),
    ("SystemConfig", "symbol_budget", 200, lambda c: SystemConfig(symbol_budget=c)),
    ("SystemConfig", "max_vehicles", 10, lambda c: SystemConfig(max_vehicles=c)),
    ("SweepSpec", "num_seeds", 2, lambda c: _sweep(num_seeds=c)),
    ("SweepSpec", "n_vehicles", 3, lambda c: _sweep(n_vehicles=c)),
    ("SweepSpec", "values", 200, lambda c: _sweep(budget=c)),
    ("sample_scenario", "n_vehicles", 3, lambda c: sample_scenario(SystemConfig(), c, 7)),
    ("stream_words", "n_vehicles", 3, lambda c: stream_words([7, 2**40], c).tolist()),
]
ENTRY_POINTS = [
    pytest.param(count, valid, call, id=f"{entry}-{count}")
    for entry, count, valid, call in CALLS
]


@pytest.mark.parametrize("count, valid, call", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, -math.inf, 3.0], ids=repr)
def test_rejects_a_count_that_is_not_an_integer(count, valid, call, bad):
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"{count} must be an integer, got {bad!r}"


@pytest.mark.parametrize("count, valid, call", ENTRY_POINTS)
def test_rejects_a_count_below_one(count, valid, call):
    with pytest.raises(ValueError) as info:
        call(0)
    assert str(info.value) == f"{count} must be >= 1, got 0"


@pytest.mark.parametrize("count, valid, call", ENTRY_POINTS)
def test_numpy_integer_count_gives_the_same_answer(count, valid, call):
    assert call(np.int64(valid)) == call(valid)


def test_numpy_integer_swept_values_are_stored_as_ints():
    spec = SweepSpec(
        name="t",
        base_config=SystemConfig(),
        swept_variable="n_vehicles",
        values=(np.int64(2), np.uint8(1)),
        solver="equal_allocation",
        outputs=("total_energy",),
        num_seeds=2,
    )
    assert spec.values == (2, 1)
    assert all(type(v) is int for v in spec.values)
    twin = dataclasses.replace(spec, values=(2, 1))
    assert format_csv(run_sweep(spec)) == format_csv(run_sweep(twin))


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(2**64 - 1), np.uint32(0)], ids=repr)
def test_numpy_integer_seed_gives_the_same_scenario(seed):
    scenario = sample_scenario(SystemConfig(), 3, seed)
    assert type(scenario.seed) is int
    assert scenario == sample_scenario(SystemConfig(), 3, int(seed))
    words = stream_words([seed], 3)[0]
    assert sample_scenario(SystemConfig(), 3, seed, streams=words) == scenario
