"""Operands and switches shared by the tests of the two gather bodies.

Both C forward gathers (``lutkernel.fused_product_sums`` and
``lutkernel.fused_serve``) have an in-register AVX-512 VBMI body and a
scalar loop.  Tests run each case on both, forcing the scalar loop
through the private ``lutkernel._force_scalar`` switch, over a uint16
LUT that puts every byte edge where the VBMI body switches lane quarter
or table half.
"""

import numpy as np
import pytest

from repro.core import lutkernel

NO_VBMI = "host CPU lacks AVX-512 VBMI, or the C kernel is unavailable"
#: Byte edges of the uint16 planes, and the table columns where the VBMI
#: body switches 64-lane quarter or 128-byte half.
EDGE_VALUES = (0, 0xFF, 0x100, 0xFF00, 0xFFFF)
EDGE_COLUMNS = (0, 63, 64, 127, 128, 255)
#: Partial and full 64-lane sub-tiles, one to eight 128-column tiles, and
#: widths on both sides of ``lutkernel.VBMI_MIN_C``.
BODY_COLUMNS = (1, 31, 32, 63, 64, 65, 127, 128, 129, 1000)


def vbmi_ok() -> bool:
    """Whether this host runs the VBMI body (loads the kernel)."""
    return lutkernel.vbmi_available()


def force_body(monkeypatch, body):
    """Pin the gathers to ``body`` ("vbmi" or "scalar") for one test.

    Runs the VBMI self-check first, so its probe calls never count in
    the test's own trace.
    """
    if body == "vbmi" and not vbmi_ok():
        pytest.skip(NO_VBMI)
    monkeypatch.setattr(lutkernel, "_force_scalar", body == "scalar")
    lutkernel.vbmi_trusted()


def runs_vbmi(body, c) -> bool:
    """Whether a qualifying call with ``c`` columns runs the VBMI body."""
    return body == "vbmi" and c >= lutkernel.VBMI_MIN_C


def _edge_rows(levels):
    return range(0, levels, max(levels // 8, 1))


def edge_lut(levels, seed=0):
    """A uint16 LUT holding every byte edge at every edge column < levels.

    The edges sit in the rows of :func:`_edge_rows`, which
    :func:`edge_operands` makes the gathers read.
    """
    rng = np.random.default_rng(seed)
    lut = rng.integers(0, 0x10000, size=(levels, levels))
    cols = [c for c in EDGE_COLUMNS if c < levels]
    for i, row in enumerate(_edge_rows(levels)):
        for j, col in enumerate(cols):
            lut[row, col] = EDGE_VALUES[(i + j) % len(EDGE_VALUES)]
    return lut.ravel().astype(np.int32)


def edge_operands(levels, m, k, c, seed=0):
    """``(wrow, xq)`` in range, reading every edge row and edge column."""
    rng = np.random.default_rng(seed)
    wrow = (rng.integers(0, levels, size=(m, k)) * levels).astype(np.int64)
    rows = np.array(_edge_rows(levels)) * levels
    at = np.arange(rows.size)
    wrow[at % m, at % k] = rows
    wrow[0, 0] = (levels - 1) * levels  # the last row: a padded load
    xq = rng.integers(0, levels, size=(k, c)).astype(np.int32)
    cols = np.array([e for e in EDGE_COLUMNS if e < levels])
    at = np.arange(cols.size)
    xq[at % k, at % c] = cols
    return wrow, xq
