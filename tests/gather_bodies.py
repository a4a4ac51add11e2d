"""Operands and switches shared by the tests of the two gather bodies.

The C gathers (``lutkernel.fused_product_sums``, ``lutkernel.serve_tail``
and the backward ``lutkernel.fused_backward_grads``) have an in-register
AVX-512 VBMI body and a scalar loop.  Tests run each case on both,
forcing the scalar loop through the private ``lutkernel._force_scalar``
switch, over tables that put every byte edge where the VBMI bodies
switch lane quarter or table half: a uint16 LUT for the forward, float32
gradient tables for the backward.
"""

import numpy as np
import pytest

from repro.core import lutkernel

NO_VBMI = "host CPU lacks AVX-512 VBMI, or the C kernel is unavailable"
#: Byte edges of the uint16 planes, and the table columns where the VBMI
#: body switches 64-lane quarter or 128-byte half.
EDGE_VALUES = (0, 0xFF, 0x100, 0xFF00, 0xFFFF)
EDGE_COLUMNS = (0, 63, 64, 127, 128, 255)
#: Float32 bit patterns whose bytes sit on the backward's plane edges:
#: -0.0, the smallest denormal, 0x00FF00FF, the largest finite, +-inf.
FLOAT_EDGE_BITS = (0x80000000, 0x00000001, 0x00FF00FF, 0x7F7FFFFF,
                   0x7F800000, 0xFF800000)
#: Partial and full 64-lane sub-tiles, one to eight 128-column tiles, and
#: widths on both sides of ``lutkernel.VBMI_MIN_C`` and
#: ``lutkernel.VBMI_BWD_MIN_C``.
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


def runs_vbmi(body, c, min_c=None) -> bool:
    """Whether a qualifying call with ``c`` columns runs the VBMI body.

    ``min_c`` is the entry point's crossover (default: the forward's).
    """
    return body == "vbmi" and c >= (min_c or lutkernel.VBMI_MIN_C)


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
    """``(wrow, xq)`` in range, reading every edge row and edge column.

    ``xq`` is uint8, the activation operand every C gather reads.
    """
    rng = np.random.default_rng(seed)
    wrow = (rng.integers(0, levels, size=(m, k)) * levels).astype(np.int64)
    rows = np.array(_edge_rows(levels)) * levels
    at = np.arange(rows.size)
    wrow[at % m, at % k] = rows
    wrow[0, 0] = (levels - 1) * levels  # the last row: a padded load
    xq = rng.integers(0, levels, size=(k, c)).astype(np.uint8)
    cols = np.array([e for e in EDGE_COLUMNS if e < levels])
    at = np.arange(cols.size)
    xq[at % k, at % c] = cols
    return wrow, xq


def edge_grad_table(levels, seed=0):
    """A float32 gradient table holding every :data:`FLOAT_EDGE_BITS`
    pattern at every edge column < levels of the rows
    :func:`edge_operands` reads."""
    rng = np.random.default_rng(seed)
    tab = rng.standard_normal((levels, levels)).astype(np.float32)
    edges = np.array(FLOAT_EDGE_BITS, dtype=np.uint32).view(np.float32)
    cols = [c for c in EDGE_COLUMNS if c < levels]
    for i, row in enumerate(_edge_rows(levels)):
        for j, col in enumerate(cols):
            tab[row, col] = edges[(i + j + seed) % len(edges)]
    return tab.ravel()


def edge_gout(m, c, seed=0):
    """An upstream gradient ``(m, c)`` float32 with denormals in it."""
    rng = np.random.default_rng(seed)
    gout = rng.standard_normal((m, c)).astype(np.float32)
    gout[:, ::5] *= np.float32(1e-40)
    return gout


def same_bits(got, want) -> bool:
    """Whether two result tuples match in dtype, shape and bits (NaN
    included): the backward's float64 ``gw`` and float32 ``gx``."""
    return all(
        g.dtype == w.dtype
        and g.shape == w.shape
        and np.array_equal(g.view(f"u{g.itemsize}"), w.view(f"u{w.itemsize}"))
        for g, w in zip(got, want)
    )
