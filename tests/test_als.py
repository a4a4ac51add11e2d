"""Tests for approximate logic synthesis."""

import numpy as np
import pytest

from repro.circuits.als import (
    ApproxSynthesisConfig,
    approximate_synthesis,
)
from repro.circuits.generators import expected_exact_product, wallace_multiplier
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import simulate
from repro.errors import CircuitError


def _run(bits=5, **kw):
    defaults = dict(nmed_budget=0.004, max_moves=20, seed=3)
    defaults.update(kw)
    return approximate_synthesis(
        wallace_multiplier(bits), ApproxSynthesisConfig(**defaults)
    )


def test_respects_nmed_budget():
    budget = 0.004
    res = _run(nmed_budget=budget)
    out = simulate(res.netlist)
    exact = expected_exact_product(5)
    nmed = np.abs(out - exact).mean() / ((1 << 10) - 1)
    assert nmed <= budget + 1e-12
    assert res.nmed == pytest.approx(nmed, abs=1e-12)


def test_saves_area():
    res = _run()
    assert res.area_after < res.area_before
    assert 0 < res.area_saving < 1
    assert len(res.moves) > 0


def test_zero_budget_keeps_function_exact():
    res = _run(nmed_budget=0.0)
    out = simulate(res.netlist)
    assert np.array_equal(out, expected_exact_product(5))


def test_deterministic_given_seed():
    r1 = _run(seed=9)
    r2 = _run(seed=9)
    assert np.array_equal(simulate(r1.netlist), simulate(r2.netlist))
    assert r1.moves == r2.moves


def test_maxed_budget_respected():
    cap = 40
    res = _run(nmed_budget=0.01, maxed_budget=cap, max_moves=30)
    out = simulate(res.netlist)
    exact = expected_exact_product(5)
    assert np.abs(out - exact).max() <= cap


def test_max_moves_bounds_moves():
    res = _run(max_moves=3)
    assert len(res.moves) <= 3


def test_result_netlist_is_valid_and_sorted():
    res = _run()
    res.netlist.validate()


def test_rejects_netlist_without_outputs():
    nl = Netlist()
    nl.add_inputs(2)
    with pytest.raises(CircuitError):
        approximate_synthesis(nl)


def test_constants_only_mode():
    res = _run(allow_signal_substitution=False)
    assert all(m.startswith("const") for m in res.moves)


def test_substitution_scores_ignore_padding_bits():
    """A 2-bit multiplier has 16 input combinations, fewer than one 64-bit
    word: the agreement score of a signal pair counts only real
    combinations, so it is the exact agreement fraction and not 1.0."""
    from repro.circuits.als import _candidate_moves
    from repro.circuits.simulator import simulate_words, unpack_bits

    nl = wallace_multiplier(2)
    values = simulate_words(nl)
    moves = _candidate_moves(
        nl, values, ApproxSynthesisConfig(), np.random.default_rng(0)
    )
    subst = [m for m in moves if m[3] == "subst"]
    assert subst
    for score, s, t, _ in subst:
        agree = unpack_bits(values[s], 16) == unpack_bits(values[t], 16)
        assert score == agree.mean()
    assert min(score for score, *_ in subst) < 1.0
