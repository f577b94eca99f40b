"""Behaviour gate: the figure presets' CSVs at their default 100 seeds.

A solver or sweep change that moves any figure value changes its hash;
such a change must be deliberate and recorded with the new hash.
"""

import hashlib

import pytest

from elid_urllc import channel_model
from elid_urllc.experiments import FIGURE_PRESETS, format_csv, run_sweep

FIGURE_SHA256 = {
    4: "048dbe07407e37b7eb4d6da74bfe93973b85b41bb9aad51838dee0d7277a776f",
    5: "44ebb6454289cd2c9127bba2c6cc834d258ea2dffb22475e790ae1a765db2609",
    6: "98119fba3324ea5a39f39b7a21e646d0adfd8e8a5ada310a91b42da52b4dc1ff",
    7: "7d3fdb6930f1311c28a31d4687ca4d96fe1a569377a48102ef1976b96e09f348",
    8: "6230cc65189f073efe79bf9cbe3986db8b39a37fb9861159ea62860940d3b9a4",
}


@pytest.mark.parametrize("figure_id", sorted(FIGURE_SHA256))
def test_preset_csv_hash(figure_id):
    text = format_csv(run_sweep(FIGURE_PRESETS[figure_id]()))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == FIGURE_SHA256[figure_id]


@pytest.mark.parametrize("figure_id", sorted(FIGURE_PRESETS))
def test_one_draw_per_swept_value_and_seed(figure_id, monkeypatch):
    draws = []
    sample = channel_model.sample_scenario

    def counted(config, n_vehicles, seed, *, streams=None):
        draws.append((n_vehicles, seed))
        return sample(config, n_vehicles, seed, streams=streams)

    monkeypatch.setattr(channel_model, "sample_scenario", counted)
    spec = FIGURE_PRESETS[figure_id](num_seeds=3)
    run_sweep(spec)
    assert len(draws) == len(spec.values) * spec.num_seeds
    assert len(set(draws)) == len(draws)
