"""Tests for the multiplier registry (Table I names)."""

import hashlib

import pytest

from repro.errors import ReproError
from repro.multipliers.registry import (
    TABLE1_NAMES,
    accurate_counterpart,
    get_multiplier,
    list_multipliers,
    multiplier_info,
)


def test_all_18_table1_names_registered():
    assert len(TABLE1_NAMES) == 18
    for name in (
        "mul8u_acc", "mul8u_rm8", "mul8u_1DMU", "mul7u_acc",
        "mul7u_rm6", "mul7u_syn1", "mul6u_acc", "mul6u_rm4",
    ):
        assert name in TABLE1_NAMES


# Covers the ``_syn`` names too since their synthesis became cheap; the name
# is kept so the existing test ids stay stable.
@pytest.mark.parametrize("name", TABLE1_NAMES)
def test_every_nonsyn_multiplier_builds_with_right_bits(name):
    info = multiplier_info(name)
    m = get_multiplier(name)
    assert m.bits == info.bits
    assert m.name == name
    assert m.lut().shape == (1 << info.bits, 1 << info.bits)


def test_exact_rows_have_no_hws():
    for name in ("mul8u_acc", "mul7u_acc", "mul6u_acc"):
        info = multiplier_info(name)
        assert info.default_hws is None
        assert info.category == "exact"
        assert get_multiplier(name).is_exact


def test_hws_values_match_table1():
    assert multiplier_info("mul8u_2NDH").default_hws == 32
    assert multiplier_info("mul7u_rm6").default_hws == 2
    assert multiplier_info("mul7u_081").default_hws == 16
    assert multiplier_info("mul6u_rm4").default_hws == 2


def test_datasheet_values_present():
    d = multiplier_info("mul8u_rm8").datasheet
    assert d.power_uw == 9.19
    assert d.nmed_percent == 0.68
    assert d.maxed == 1793


def test_get_multiplier_caches():
    assert get_multiplier("mul6u_rm4") is get_multiplier("mul6u_rm4")


def test_unknown_name_raises():
    with pytest.raises(ReproError):
        multiplier_info("mul9u_nope")
    with pytest.raises(ReproError):
        get_multiplier("mul9u_nope")


def test_list_filters():
    assert set(list_multipliers(bits=6)) == {"mul6u_acc", "mul6u_rm4"}
    assert "mul7u_rm6" in list_multipliers(category="truncated")
    assert "mul8u_acc" not in list_multipliers(category="truncated")
    sevens = list_multipliers(bits=7, category="evoapprox")
    assert set(sevens) == {"mul7u_06Q", "mul7u_073", "mul7u_081", "mul7u_08E"}


def test_accurate_counterpart():
    assert accurate_counterpart("mul8u_rm8") == "mul8u_acc"
    assert accurate_counterpart("mul6u_rm4") == "mul6u_acc"


# The ALS-built ``_syn`` multipliers, pinned: sha256 of the LUT bytes,
# number of accepted rewrites, NMED and area after synthesis.  EXPERIMENTS.md's
# Table I ``_syn`` rows are measured on exactly these circuits, so any change
# to the synthesis loop must reproduce them bit for bit.
SYN_GOLDEN = {
    "mul7u_syn1": (
        "ed448da298f59d729f4876a8392847d77350e3361c765ae57f3346efe81eca1b",
        34, 0.0023194775071720686, 16.401999999999987,
    ),
    "mul7u_syn2": (
        "df4cf12a1e2450c3056dd2f5d52698c6558bf296bed71c3d90f87242a1c5f910",
        41, 0.00344869681987426, 14.454999999999991,
    ),
    "mul8u_syn1": (
        "33ffd73b71874cdd56779f97cc9d57369baf23c9bc06db6a5ff02e0ab22a71db",
        56, 0.0026894026092927443, 21.062999999999978,
    ),
    "mul8u_syn2": (
        "cb0181ebe430a866cfb59e5cb270e0e6751d051022566750c4830081ed33b763",
        55, 0.00291542687113756, 19.35199999999998,
    ),
}


@pytest.mark.parametrize("name", sorted(SYN_GOLDEN))
def test_syn_multipliers_are_bit_identical_to_golden(name):
    digest, n_moves, nmed, area_after = SYN_GOLDEN[name]
    m = get_multiplier(name)
    res = m.synthesis_result
    assert hashlib.sha256(m.lut().tobytes()).hexdigest() == digest
    assert len(res.moves) == n_moves
    assert res.nmed == nmed
    assert res.area_after == area_after
