"""The paper's contribution: gradient approximation of AppMults.

- :mod:`repro.core.smoothing` -- moving-average smoothing of the AppMult
  function (Eq. 4, Fig. 3a).
- :mod:`repro.core.gradient` -- difference-based gradient LUTs (Eqs. 5-6,
  Fig. 3b), the STE baseline, and user-defined gradient hooks.
- :mod:`repro.core.hws` -- the half-window-size selection procedure of
  Section V-A (short LeNet trainings over HWS in {1, 2, 4, ..., 64}).
- :mod:`repro.core.lutgemm` -- the shared LUT-GEMM engine (cached per
  multiplier/gradient-method, fused gather backward).
- :mod:`repro.core.execcore` -- the unified execution core both the
  training tape and the compiled serving plan lower onto (C-kernel or
  numpy backend, bit-identical either way).
- :mod:`repro.core.lutkernel` -- JIT-compiled fused C forward/backward
  kernels (optional; numpy fallback everywhere).
"""

from repro.core.smoothing import (
    smooth_lut,
    smooth_function,
    smooth_function_kernel,
    smoothing_kernel,
)
from repro.core.gradient import (
    GradientPair,
    difference_gradient_lut,
    ste_gradient_lut,
    raw_difference_gradient_lut,
    gradient_luts,
    GRADIENT_METHODS,
)
from repro.core import execcore
from repro.core.hws import select_hws, HwsSelectionResult
from repro.core.lutgemm import (
    DEFAULT_CHUNK,
    LutGemm,
    EngineCacheStats,
    clear_engine_cache,
    engine_cache_stats,
    format_engine_stats,
    get_engine,
)

__all__ = [
    "execcore",
    "DEFAULT_CHUNK",
    "LutGemm",
    "EngineCacheStats",
    "clear_engine_cache",
    "engine_cache_stats",
    "format_engine_stats",
    "get_engine",
    "smooth_lut",
    "smooth_function",
    "smooth_function_kernel",
    "smoothing_kernel",
    "GradientPair",
    "difference_gradient_lut",
    "ste_gradient_lut",
    "raw_difference_gradient_lut",
    "gradient_luts",
    "GRADIENT_METHODS",
    "select_hws",
    "HwsSelectionResult",
]
