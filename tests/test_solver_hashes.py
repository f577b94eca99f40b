"""Behaviour gate: every solver's answers on a fixed block of requests.

No figure preset runs the joint min-max solver, so the figure hashes do
not cover it. This pins the answers of all five solvers instead: the
blocklengths, the exact powers (float.hex) and the worst margin of each
report, or "infeasible". iterations is left out, because a faster
solve may take fewer rounds to the same answer.

The fixed-power solver's answer is its blocklengths plus its worst
margin. Its trajectory, the worst margin after each of its M - n grants,
is derived from them: the per-symbol greedy that ends at those
blocklengths passes through it, and it ends at that worst margin. A
second hash pins the solver's blocklengths and that trajectory, taken
from the reference greedy, over a wider range of payloads and budgets.
A last hash pins every solver's answers on requests drawn over the
whole accepted config space.
"""

import functools
import hashlib

import numpy as np

from elid_urllc.channel_model import SystemConfig, sample_scenario
from elid_urllc.exceptions import InfeasibleError
from elid_urllc.experiments import SOLVER_NAMES, run_solver
from oracle_utils import reference_symbols_minmax_fixed_p

SOLVER_ANSWERS_SHA256 = "3169d7ac735e5c068cd007c1bb0b835b85a0a2c572794c7992f1c3b3d9a03d9f"


def _block():
    """100 requests at M=200 and 20 at M=1000, n = 1..10 in turn."""
    for m_total, count in ((200, 100), (1000, 20)):
        config = SystemConfig(symbol_budget=m_total)
        for i in range(count):
            yield sample_scenario(config, i % 10 + 1, seed=i)


def _answer(solver, scenario) -> str:
    try:
        report = run_solver(solver, scenario)
    except InfeasibleError:
        return f"{solver} infeasible"
    allocation = report.allocation
    return " ".join(
        [solver, repr(allocation.blocklengths)]
        + [p.hex() for p in allocation.powers]
        + [report.worst_margin.g.hex()]
    )


def solver_answers_digest() -> str:
    digest = hashlib.sha256()
    for scenario in _block():
        for solver in SOLVER_NAMES:
            digest.update(_answer(solver, scenario).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_solver_answers_hash():
    assert solver_answers_digest() == SOLVER_ANSWERS_SHA256


FIXED_POWER_ANSWERS_SHA256 = "78c1d05d2144728036a1c3074089b3cd84b2f61030b489f335866550243163bc"


@functools.cache
def _fixed_power_answers():
    """(solver's blocklengths, its worst margin, reference blocklengths,
    reference trajectory) of symbols_minmax_fixed_p on 10 requests
    (n = 1..10) at each of D in {1, 160, 1000} and M in {11, 200, 5000}.
    The trajectory is the reference greedy's worst margin after every
    grant (oracle_utils.reference_symbols_minmax_fixed_p)."""
    answers = []
    for payload_bits in (1, 160, 1000):
        for m_total in (11, 200, 5000):
            config = SystemConfig(payload_bits=payload_bits, symbol_budget=m_total)
            for i in range(10):
                scenario = sample_scenario(config, i + 1, seed=i)
                report = run_solver("symbols_minmax_fixed_p", scenario)
                reference_m, trajectory, _ = reference_symbols_minmax_fixed_p(scenario)
                answers.append(
                    (
                        report.allocation.blocklengths,
                        report.worst_margin.g,
                        reference_m,
                        trajectory,
                    )
                )
    return answers


def fixed_power_answers_digest() -> str:
    """The solver's blocklengths and the trajectory that ends at them,
    the worst margin after every grant in float.hex, on the block of
    _fixed_power_answers."""
    digest = hashlib.sha256()
    for blocklengths, _, _, trajectory in _fixed_power_answers():
        line = " ".join(
            [repr(blocklengths)] + [f"{k}:{g.hex()}" for k, g in trajectory]
        )
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_fixed_power_answers_hash():
    assert fixed_power_answers_digest() == FIXED_POWER_ANSWERS_SHA256


def test_fixed_power_answer_ends_its_trajectory():
    # the solver stops where the reference greedy stops, at the worst
    # margin the trajectory ends on, bit for bit
    for blocklengths, worst_g, reference_m, trajectory in _fixed_power_answers():
        assert blocklengths == reference_m
        assert worst_g.hex() == trajectory[-1][1].hex()


LARGE_BUDGET_ANSWERS_SHA256 = "4985bc6768747c71b522ccc81045f2b681cb1b4f8acc85070131b18d0dc40ee9"


def large_budget_answers_digest() -> str:
    """The answers of the three solvers that grant spare symbols, in the
    format of _answer, at M in {10^4, 10^5} for n = 1..10 (seed n - 1).
    The fixed-power margin matrix is up to 10^5 columns wide there, and
    the joint split's windows thousands, far past the M <= 5000 of the
    hashes above."""
    digest = hashlib.sha256()
    for m_total in (10_000, 100_000):
        config = SystemConfig(symbol_budget=m_total)
        for i in range(10):
            scenario = sample_scenario(config, i + 1, seed=i)
            for solver in ("symbol_sharing", "joint_minmax", "symbols_minmax_fixed_p"):
                digest.update(_answer(solver, scenario).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_large_budget_answers_hash():
    assert large_budget_answers_digest() == LARGE_BUDGET_ANSWERS_SHA256


ACCEPTED_SPACE_ANSWERS_SHA256 = "2f24232246bce2185bc46c43870e7e4b1523590d59eaa402e3124947b16fe884"


def accepted_space_requests(count: int = 160, seed: int = 0):
    """(config, n, seed) requests drawn over the ranges of the accepted
    config space test (test_allocators._ACCEPTED_CONFIGS): payloads and
    budgets up to 2e4 symbols, energy budgets over 24 decades, error
    targets down to the smallest subnormal, wide geometry, noise and K
    factors, and an explicit common power in 30% of draws. A fixed numpy
    generator draws them, so they do not depend on Hypothesis'
    example generation."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        config = SystemConfig(
            payload_bits=int(rng.integers(1, 20_001)),
            symbol_budget=int(rng.integers(1, 20_001)),
            energy_budget=10.0 ** rng.uniform(-12.0, 12.0),
            target_eps=max(10.0 ** rng.uniform(-323.3, -0.01), 5e-324),
            bandwidth=10.0 ** rng.uniform(0.0, 10.0),
            noise_psd_dbm_hz=rng.uniform(-220.0, -120.0),
            road_length=10.0 ** rng.uniform(-1.0, 4.0),
            mount_height=10.0 ** rng.uniform(-1.0, 3.0),
            rician_k_db=rng.uniform(-60.0, 60.0),
            common_power=10.0 ** rng.uniform(-9.0, 3.0) if rng.random() < 0.3 else None,
        )
        yield config, int(rng.integers(1, 11)), int(rng.integers(0, 2**64, dtype=np.uint64))


def accepted_space_answers_digest() -> str:
    """Every solver's answer, in the format of _answer, on each request
    of accepted_space_requests."""
    digest = hashlib.sha256()
    for config, n, seed in accepted_space_requests():
        scenario = sample_scenario(config, n, seed)
        for solver in SOLVER_NAMES:
            digest.update(_answer(solver, scenario).encode("utf-8") + b"\n")
    return digest.hexdigest()


def test_accepted_space_answers_hash():
    assert accepted_space_answers_digest() == ACCEPTED_SPACE_ANSWERS_SHA256
