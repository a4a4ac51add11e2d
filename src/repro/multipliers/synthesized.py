"""ALS-generated multipliers: the ``_syn`` rows of Table I.

The paper produces these with the ALSRAC approximate logic synthesis tool;
here they come from :func:`repro.circuits.als.approximate_synthesis` applied
to an exact Wallace-tree multiplier, with NMED/MaxED budgets taken from the
corresponding Table I row.  Generation is deterministic (seeded) but not
free: a cold build took 0.9-1.5 s of CPU for the 7-bit and 1.7-3.6 s for the
8-bit circuits (medians 0.94 / 1.32 / 2.42 / 3.36 s for ``mul7u_syn1`` /
``mul7u_syn2`` / ``mul8u_syn1`` / ``mul8u_syn2``, 2-vCPU Xeon), so instances
are cached per process via the registry.
"""

from __future__ import annotations

from repro.circuits.als import (
    ApproxSynthesisConfig,
    SynthesisResult,
    approximate_synthesis,
)
from repro.circuits.generators import array_multiplier, wallace_multiplier
from repro.multipliers.base import NetlistMultiplier


class SynthesizedMultiplier(NetlistMultiplier):
    """A multiplier produced by the approximate-synthesis pass.

    ``base`` selects the exact starting structure ("wallace" or "array");
    different starting structures steer the greedy rewrite loop to different
    approximate circuits, which is how the paired ``_syn1``/``_syn2`` rows
    are diversified.
    """

    def __init__(
        self,
        name: str,
        bits: int,
        config: ApproxSynthesisConfig,
        base: str = "wallace",
    ):
        start = (
            wallace_multiplier(bits) if base == "wallace" else array_multiplier(bits)
        )
        result: SynthesisResult = approximate_synthesis(start, config)
        super().__init__(name, bits, result.netlist)
        self.synthesis_result = result
        self.config = config
        self.base = base


# Budgets follow the Table I targets for each _syn row; seeds fixed for
# reproducibility.  max_moves bounds runtime; see EXPERIMENTS.md for the
# measured ER/NMED/MaxED of the generated circuits.
_SYN_CONFIGS: dict[str, tuple[int, str, ApproxSynthesisConfig]] = {
    "mul8u_syn1": (
        8,
        "wallace",
        ApproxSynthesisConfig(
            nmed_budget=0.0028, maxed_budget=1940, max_moves=60, seed=31
        ),
    ),
    "mul8u_syn2": (
        8,
        "array",
        ApproxSynthesisConfig(
            nmed_budget=0.0030, maxed_budget=2060, max_moves=60, seed=32
        ),
    ),
    "mul7u_syn1": (
        7,
        "wallace",
        ApproxSynthesisConfig(
            nmed_budget=0.0028, maxed_budget=460, max_moves=80, seed=11
        ),
    ),
    "mul7u_syn2": (
        7,
        "array",
        ApproxSynthesisConfig(
            nmed_budget=0.0039, maxed_budget=715, max_moves=80, seed=22
        ),
    ),
}


def build_syn_multiplier(name: str) -> SynthesizedMultiplier:
    """Construct one of the named ``_syn`` multipliers."""
    bits, base, config = _SYN_CONFIGS[name]
    return SynthesizedMultiplier(name, bits, config, base=base)


def syn_names() -> list[str]:
    """Names of all synthesized Table I multipliers."""
    return sorted(_SYN_CONFIGS)
