"""Property tests for approximate logic synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.als import ApproxSynthesisConfig, approximate_synthesis
from repro.circuits.cost import area
from repro.circuits.generators import (
    array_multiplier,
    expected_exact_product,
    wallace_multiplier,
)
from repro.circuits.simulator import simulate


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=4, max_value=5),
    st.floats(min_value=0.0005, max_value=0.02),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_budget_always_respected(bits, budget, seed):
    res = approximate_synthesis(
        wallace_multiplier(bits),
        ApproxSynthesisConfig(nmed_budget=budget, max_moves=12, seed=seed),
    )
    out = simulate(res.netlist)
    exact = expected_exact_product(bits)
    nmed = np.abs(out - exact).mean() / ((1 << (2 * bits)) - 1)
    assert nmed <= budget + 1e-12
    assert res.area_after <= res.area_before


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_larger_budget_never_larger_area(seed):
    """More error headroom cannot end with a bigger circuit (greedy is
    monotone in the budget for identical candidate streams)."""
    small = approximate_synthesis(
        wallace_multiplier(4),
        ApproxSynthesisConfig(nmed_budget=0.001, max_moves=15, seed=seed),
    )
    large = approximate_synthesis(
        wallace_multiplier(4),
        ApproxSynthesisConfig(nmed_budget=0.02, max_moves=15, seed=seed),
    )
    assert large.area_after <= small.area_after + 1e-9


def test_resulting_netlist_costs_match_reported():
    res = approximate_synthesis(
        wallace_multiplier(5),
        ApproxSynthesisConfig(nmed_budget=0.005, max_moves=10, seed=2),
    )
    assert area(res.netlist) == pytest.approx(res.area_after)


def test_moves_log_format():
    res = approximate_synthesis(
        wallace_multiplier(4),
        ApproxSynthesisConfig(nmed_budget=0.01, max_moves=5, seed=1),
    )
    for move in res.moves:
        assert move.startswith(("const0(", "const1(", "subst("))


# ---------------------------------------------------------------------------
# Differential test against the straightforward evaluator
# ---------------------------------------------------------------------------
def _oracle_synthesis(netlist, config):
    """Reference greedy loop: every candidate is built as a full netlist
    (copy, substitute, dead-code eliminate), costed with ``area`` and
    re-simulated exhaustively.  Returns ``(moves, nmed, area_after, gates)``.
    """
    from repro.circuits.als import _candidate_moves
    from repro.circuits.simulator import output_values, simulate_words

    rng = np.random.default_rng(config.seed)
    golden = output_values(netlist)
    norm = float((1 << len(netlist.outputs)) - 1)
    current = netlist.copy()
    current_area = area(netlist)
    current_nmed = 0.0
    moves = []
    for _ in range(config.max_moves):
        values = simulate_words(current)
        candidates = _candidate_moves(current, values, config, rng)
        best = None
        evaluated = 0
        for _score, old, new, kind in candidates:
            if evaluated >= config.candidates_per_round:
                break
            evaluated += 1
            if kind in ("const0", "const1"):
                trial = current.copy()
                const = trial.prepend_const(1 if kind == "const1" else 0)
                trial = trial.substitute(old, const)
            else:
                trial = current.substitute(old, new)
            trial = trial.dead_code_eliminate()
            trial_area = area(trial)
            saved = current_area - trial_area
            if saved <= 0:
                continue
            trial_out = output_values(trial)
            trial_nmed = float(np.abs(trial_out - golden).mean() / norm)
            if trial_nmed > config.nmed_budget:
                continue
            if (
                config.maxed_budget is not None
                and int(np.abs(trial_out - golden).max()) > config.maxed_budget
            ):
                continue
            gain = saved / (max(trial_nmed - current_nmed, 0.0) + 1e-9)
            if best is None or gain > best[0]:
                best = (gain, trial, trial_nmed, trial_area, f"{kind}({old}->{new})")
        if best is None:
            break
        _, current, current_nmed, current_area, desc = best
        moves.append(desc)
    return moves, current_nmed, current_area, current.topo_sort().gates


def _with_dead_gates(netlist, n_dead):
    """Add ``n_dead`` gates that no output reads at the front of the gate
    list (a chain over the inputs, so a live signal can be rewritten to a
    dead one, which revives it) and ``n_dead`` at the back (over the last
    gate outputs), so the first round's candidates include dead signals."""
    from repro.circuits.netlist import Gate, Netlist

    n_in = netlist.n_inputs
    front = Netlist(n_inputs=n_in)
    a, b = 0, 1
    for k in range(n_dead):
        a, b = b, front.add_gate(("XOR2", "AND2", "NOR2")[k % 3], a, b)

    def shift(net):
        return net if net < n_in else net + n_dead

    nl = Netlist(
        name=netlist.name,
        n_inputs=n_in,
        gates=front.gates
        + [
            Gate(g.gtype, shift(g.out), tuple(shift(i) for i in g.ins))
            for g in netlist.gates
        ],
        outputs=[shift(o) for o in netlist.outputs],
    )
    a, b = nl.gates[-1].out, nl.gates[-2].out
    for _ in range(n_dead):
        a, b = b, nl.xor2(a, b)
    nl.validate()
    return nl


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([wallace_multiplier, array_multiplier]),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=0.0, max_value=0.03),
    st.sampled_from([None, -1, 0, 3, 12, 40]),
    st.booleans(),
    st.sampled_from([0, 0, 3]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_synthesis_matches_the_full_resimulation_oracle(
    generator, bits, budget, maxed, subst, n_dead, seed
):
    netlist = generator(bits)
    if n_dead:
        netlist = _with_dead_gates(netlist, n_dead)
    config = ApproxSynthesisConfig(
        nmed_budget=budget,
        maxed_budget=maxed,
        max_moves=10,
        candidates_per_round=12,
        allow_signal_substitution=subst,
        seed=seed,
    )
    res = approximate_synthesis(netlist, config)
    moves, nmed, area_after, gates = _oracle_synthesis(netlist, config)
    assert res.moves == moves
    assert res.nmed == nmed
    assert res.area_after == area_after
    assert res.netlist.gates == gates


@pytest.mark.parametrize("generator", [wallace_multiplier, array_multiplier])
@pytest.mark.parametrize("n_dead", [0, 3])
@pytest.mark.parametrize("bits", [2, 4])
@pytest.mark.parametrize("invert", [False, True])
def test_every_candidate_scores_like_its_built_netlist(
    generator, n_dead, bits, invert
):
    """Area, error sum and MaxED check of every candidate rewrite of one
    round (rejected ones included) equal those of the built, re-simulated
    netlist.  Inverted outputs put gates that set padding bits (a 2-bit
    circuit has 16 combinations in a 64-bit word) on every output path."""
    from repro.circuits.als import _candidate_moves, _rewrite, _Trials
    from repro.circuits.simulator import _tail_mask, output_values, simulate_words

    netlist = generator(bits)
    if n_dead:
        netlist = _with_dead_gates(netlist, n_dead)
    if invert:
        netlist.outputs = [netlist.inv(o) for o in netlist.outputs]
    golden_values = simulate_words(netlist)
    golden = output_values(netlist, golden_values)
    current = _rewrite(netlist, netlist.gates[5].out, None, "const0")
    values = simulate_words(current)
    trials = _Trials(current, values, golden_values[netlist.outputs])
    const = {
        "const0": np.zeros(values.shape[1], np.uint64),
        "const1": np.full(values.shape[1], _tail_mask(len(golden))),
    }
    moves = _candidate_moves(
        current, values, ApproxSynthesisConfig(), np.random.default_rng(0)
    )
    for _score, old, new, kind in moves:
        built = _rewrite(current, old, new, kind)
        err = np.abs(output_values(built) - golden)
        assert trials.area(old, new) == area(built)
        repl = const[kind] if new is None else values[new]
        err_sum, changed = trials.error(old, repl)
        assert err_sum == err.sum()
        # exceeds() assumes the current netlist is within the cap.
        for cap in (err.max() - 1, err.max()):
            if cap >= trials.err_max:
                assert trials.exceeds(changed, cap) == (err.max() > cap)
