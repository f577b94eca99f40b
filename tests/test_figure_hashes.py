"""Behaviour gate: the figure presets' CSVs and printed summaries at
their default 100 seeds.

A solver or sweep change that moves any figure value changes its CSV
hash, and a change to the summary statistics that moves a printed digit
changes its summary hash; such a change must be deliberate and recorded
with the new hash.
"""

import contextlib
import functools
import hashlib
import io

import pytest

from elid_urllc import channel_model, cli
from elid_urllc.experiments import FIGURE_PRESETS, format_csv, run_sweep

FIGURE_SHA256 = {
    4: "048dbe07407e37b7eb4d6da74bfe93973b85b41bb9aad51838dee0d7277a776f",
    5: "44ebb6454289cd2c9127bba2c6cc834d258ea2dffb22475e790ae1a765db2609",
    6: "98119fba3324ea5a39f39b7a21e646d0adfd8e8a5ada310a91b42da52b4dc1ff",
    7: "7d3fdb6930f1311c28a31d4687ca4d96fe1a569377a48102ef1976b96e09f348",
    8: "6230cc65189f073efe79bf9cbe3986db8b39a37fb9861159ea62860940d3b9a4",
}


# the text cli._print_summary prints for each preset's rows
SUMMARY_SHA256 = {
    4: "156e5ecf78feed853ee5b96d701b831b008cc22652dd9a50da5ee37940adbddd",
    5: "9ee61a9f10b6e0df46ac11dd3b7a0e2b4a7c4e3fbb7f92eea0baa66bcc507b22",
    6: "01e3295f15938c26c1af1411a0d7c338fa0e5cce9840bf3d59912821a6061e43",
    7: "a3c4145031e21941a9aed8f2dc8506089f968cfc32a1631bf49edc7731b7ac2e",
    8: "0575771fbc4ca7055d52ef2daf1e211bcb9cc0829a7c4438cb60bb0753cf2702",
}


@functools.cache
def _preset_rows(figure_id):
    return run_sweep(FIGURE_PRESETS[figure_id]())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("figure_id", sorted(FIGURE_SHA256))
def test_preset_csv_hash(figure_id):
    assert _sha256(format_csv(_preset_rows(figure_id))) == FIGURE_SHA256[figure_id]


@pytest.mark.parametrize("figure_id", sorted(SUMMARY_SHA256))
def test_preset_summary_hash(figure_id):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        cli._print_summary(_preset_rows(figure_id))
    assert _sha256(printed.getvalue()) == SUMMARY_SHA256[figure_id]


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
