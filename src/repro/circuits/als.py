"""Approximate logic synthesis by signal substitution.

Stands in for the ALSRAC tool the paper uses to generate its ``_syn``
multipliers.  The pass implements the classic SASIMI-style greedy loop:

1. Exhaustively simulate the current netlist.
2. Enumerate candidate rewrites: replace (all uses of) a signal with a
   constant, or with another, earlier signal whose exhaustive waveform is
   similar.
3. Exactly evaluate the most promising candidates, and apply the one with
   the best area-saved-per-error ratio whose resulting error (NMED w.r.t.
   the *original* circuit) stays within budget.  A candidate is never
   built: its area follows from propagating use counts, and its error from
   re-simulating only the rewritten signal's fanout cone, only on the
   64-combination words where the replacement waveform differs from the
   original signal (see :class:`_Trials`).
4. Build the winning rewrite, dead-code eliminate and repeat.

Because our simulator enumerates every input combination, candidate errors
are exact rather than estimated -- a luxury real ALS tools approximate with
sampling, which this pass mirrors in spirit via candidate pruning.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from repro.circuits.cost import area
from repro.circuits.gates import gate_spec
from repro.circuits.netlist import Netlist
from repro.circuits.simulator import WORD_OPS, _tail_mask, simulate_words
from repro.errors import CircuitError


@dataclass(frozen=True)
class ApproxSynthesisConfig:
    """Knobs for the greedy approximate-synthesis loop.

    Attributes:
        nmed_budget: Maximum allowed normalized mean error distance of the
            rewritten circuit w.r.t. the original, as a fraction
            (0.003 == 0.3%).  NMED is normalized by ``2**n_output_bits - 1``
            following Eq. 2 of the paper.
        max_moves: Upper bound on accepted rewrites.
        candidates_per_round: How many top-ranked candidates get an exact
            evaluation each round.
        allow_signal_substitution: Also consider signal-to-signal rewrites
            (not just constants).
        maxed_budget: Optional cap on the worst-case error distance of the
            rewritten circuit.  ``None`` disables the check.  Real ALS flows
            targeting DNN accelerators constrain MaxED as well as NMED, since
            rare huge errors wreck accumulations.
        seed: Seed for tie-breaking shuffles, making runs reproducible.
    """

    nmed_budget: float = 0.003
    max_moves: int = 64
    candidates_per_round: int = 48
    allow_signal_substitution: bool = True
    maxed_budget: int | None = None
    seed: int = 0


@dataclass
class SynthesisResult:
    """Outcome of :func:`approximate_synthesis`."""

    netlist: Netlist
    nmed: float
    area_before: float
    area_after: float
    moves: list[str] = field(default_factory=list)

    @property
    def area_saving(self) -> float:
        """Fraction of area removed."""
        if self.area_before == 0:
            return 0.0
        return 1.0 - self.area_after / self.area_before


def _candidate_moves(
    netlist: Netlist,
    values: np.ndarray,
    config: ApproxSynthesisConfig,
    rng: np.random.Generator,
) -> list[tuple[float, int, int | None, str]]:
    """Rank candidate rewrites.

    Returns a list of ``(score, old_net, new_net_or_None, kind)`` sorted by
    descending score, where ``new_net is None`` encodes a constant move
    (kind "const0"/"const1") and otherwise a signal substitution.  The score
    is a cheap similarity proxy: the fraction of input combinations on which
    the replacement agrees with the original signal.
    """
    n_combos = 1 << netlist.n_inputs
    gate_outs = [g.out for g in netlist.gates if g.gtype not in ("CONST0", "CONST1")]
    if not gate_outs:
        return []
    ones = np.bitwise_count(values).sum(axis=1).astype(np.float64)
    p_one = ones / n_combos

    moves: list[tuple[float, int, int | None, str]] = []
    for s in gate_outs:
        moves.append((1.0 - p_one[s], s, None, "const0"))
        moves.append((p_one[s], s, None, "const1"))

    if config.allow_signal_substitution and len(gate_outs) > 1:
        # Sample pairs (t, s) with t earlier than s to guarantee acyclicity.
        n_pairs = min(4 * config.candidates_per_round, 512)
        arr = np.array(gate_outs)
        pairs = np.sort(
            [rng.choice(arr, size=2, replace=False) for _ in range(n_pairs)]
        )
        same = ~(values[pairs[:, 0]] ^ values[pairs[:, 1]])
        same[:, -1] &= _tail_mask(n_combos)  # ~ also set the padding bits
        sims = np.bitwise_count(same).sum(axis=1) / n_combos
        for sim, (t, s) in zip(sims.tolist(), pairs.tolist()):
            moves.append((sim, s, t, "subst"))

    moves.sort(key=lambda m: m[0], reverse=True)
    return moves


def _abs_diff_planes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-sliced ``|a - b|`` of unsigned numbers stored as bit-planes.

    ``a`` and ``b`` are ``(n_bits, n_words)`` packed planes, LSB first; the
    result has the same layout.
    """
    x = a ^ b
    # Borrow lookahead (Kogge-Stone): afterwards g[k] is the borrow out of
    # bit k, so g[-1] marks a < b.
    g = b & ~a
    p = ~x
    span = 1
    while span < len(x):
        g[span:] |= p[span:] & g[:-span]
        p[span:] &= p[:-span]
        span *= 2
    d = x
    d[1:] ^= g[:-1]  # d = (a - b) mod 2**n_bits
    # Negate where a < b: flip every bit above the lowest set one.
    above = np.bitwise_or.accumulate(d[:-1], axis=0)
    above &= g[-1]
    d[1:] ^= above
    return d


def _word_sums(planes: np.ndarray) -> np.ndarray:
    """Per-word sum of the numbers held in bit-planes ``(n_bits, n_words)``."""
    weights = 1 << np.arange(len(planes), dtype=np.int64)
    return weights @ np.bitwise_count(planes)


def _max_value(planes: np.ndarray) -> int:
    """Largest number held in bit-planes ``(n_bits, n_words)``, LSB first."""
    value = 0
    cand = None
    for k in range(len(planes) - 1, -1, -1):
        hit = planes[k] if cand is None else planes[k] & cand
        if np.count_nonzero(hit):
            cand = hit
            value |= 1 << k
    return value


class _Trials:
    """Exact area and error of single-signal rewrites of one netlist.

    A rewrite redirects every use of net ``old`` to a replacement (a tie
    cell or an earlier net).  The rewritten netlist is never built:

    - *Area.* Use counts of the live (dead-code-eliminated) netlist are
      propagated: the replacement first gains ``old``'s uses, reviving its
      cone if it was dead, then ``old`` loses them, freeing every gate whose
      count drops to zero.  The kept gates' areas are added with built-in
      :func:`sum` in gate-list order, the expression :func:`area` computes.
    - *Error.* Outputs can only change on input combinations where the
      replacement waveform differs from ``old``'s, so only the words holding
      such combinations are re-simulated, only along ``old``'s live fanout
      cone, and only past gates whose output changed.  The error on words
      whose output changed comes from a bit-sliced subtraction against the
      golden output planes; every other word keeps the current error.

    Every error sum is an exact integer below ``2**53``, so
    ``err_sum / n_combos / norm`` equals the NMED of a full re-simulation
    bit for bit.
    """

    def __init__(
        self, current: Netlist, values: np.ndarray, golden_planes: np.ndarray
    ):
        self.golden_planes = golden_planes
        self.tail = _tail_mask(1 << current.n_inputs)
        self.rows = list(values)
        self.cells = [(WORD_OPS.get(g.gtype), g.ins, g.out) for g in current.gates]
        self.areas = [gate_spec(g.gtype).area_um2 for g in current.gates]
        self.driver = {g.out: gi for gi, g in enumerate(current.gates)}

        live = {g.out for g in current.dead_code_eliminate().gates}
        self.live = [g.out in live for g in current.gates]
        self.uses = [0] * current.n_nets
        self.readers: dict[int, list[int]] = {}
        for gi, g in enumerate(current.gates):
            if self.live[gi]:
                for net in g.ins:
                    self.uses[net] += 1
                for net in dict.fromkeys(g.ins):
                    self.readers.setdefault(net, []).append(gi)
        self.out_bits: dict[int, list[int]] = {}
        for k, net in enumerate(current.outputs):
            self.uses[net] += 1
            self.out_bits.setdefault(net, []).append(k)
        self.planes = values[current.outputs]
        err = _abs_diff_planes(self.planes, golden_planes)
        self.word_err_sum = _word_sums(err)
        self.err_sum = int(self.word_err_sum.sum())
        self.err_max = _max_value(err)

    # ------------------------------------------------------------------
    # Area
    # ------------------------------------------------------------------
    def area(self, old: int, new: int | None) -> float:
        """Area after rewriting ``old`` to ``new`` (``None``: a tie cell)."""
        kept = self.live.copy()
        delta: dict[int, int] = {}
        n_uses = self.uses[old]
        if n_uses:
            if new is not None:
                self._add_uses(new, n_uses, kept, delta)
            self._add_uses(old, -n_uses, kept, delta)
        return sum(compress(self.areas, kept))

    def _add_uses(
        self, net: int, by: int, kept: list[bool], delta: dict[int, int]
    ) -> None:
        stack = [(net, by)]
        while stack:
            net, by = stack.pop()
            d = delta.get(net, 0)
            delta[net] = d + by
            gi = self.driver.get(net)
            if gi is None:  # primary input
                continue
            before = self.uses[net] + d
            if before == 0:  # a dead gate gains uses
                kept[gi] = True
                stack.extend((i, 1) for i in self.cells[gi][1])
            elif before + by == 0:  # a live gate loses its last use
                kept[gi] = False
                stack.extend((i, -1) for i in self.cells[gi][1])

    # ------------------------------------------------------------------
    # Error
    # ------------------------------------------------------------------
    def error(
        self, old: int, repl: np.ndarray
    ) -> tuple[int, np.ndarray | None]:
        """Exact output error after every use of ``old`` reads ``repl``.

        Returns the sum of the absolute error over all input combinations,
        and the absolute error's bit-planes on the words whose output
        changed (``None`` when no output changes).
        """
        unchanged = self.err_sum, None
        if not self.uses[old]:
            return unchanged
        rows = self.rows
        words = np.flatnonzero(repl ^ rows[old])
        if not len(words):
            return unchanged
        if len(words) == len(repl):
            fetch = rows.__getitem__
            cur = self.planes
        else:
            fetch = lambda net: rows[net].take(words)  # noqa: E731
            cur = self.planes.take(words, axis=1)
            repl = repl.take(words)

        # Event-driven re-simulation of old's fanout cone on the selected
        # words; gate indices pop in gate-list (topological) order.
        changed = {old: repl}
        cells, readers = self.cells, self.readers
        heap = list(readers.get(old, ()))
        heapq.heapify(heap)
        last = -1
        while heap:
            gi = heapq.heappop(heap)
            if gi == last:
                continue
            last = gi
            op, ins, out = cells[gi]
            v = op(*[changed[i] if i in changed else fetch(i) for i in ins])
            if v.tobytes() != fetch(out).tobytes():
                changed[out] = v
                for r in readers.get(out, ()):
                    heapq.heappush(heap, r)

        planes = None
        for net, v in changed.items():
            if net in self.out_bits:
                if planes is None:
                    planes = cur.copy()
                planes[self.out_bits[net]] = v
        if planes is None:
            return unchanged
        # Only a one-word circuit (< 64 combinations) has padding bits, and
        # then the selection is that word.
        planes[:, -1] &= self.tail
        hit = np.flatnonzero(np.bitwise_or.reduce(planes ^ cur, axis=0))
        if not len(hit):
            return unchanged
        words = words[hit]
        abs_planes = _abs_diff_planes(
            planes.take(hit, axis=1), self.golden_planes.take(words, axis=1)
        )
        before = int(self.word_err_sum[words].sum())
        return self.err_sum - before + int(_word_sums(abs_planes).sum()), abs_planes

    def exceeds(self, abs_planes: np.ndarray | None, cap: int) -> bool:
        """Whether a rewrite's largest absolute error is above ``cap``, given
        the changed words' planes from :meth:`error`.

        The current netlist keeps every error within any cap ``>= 0`` the
        loop enforces (it is the original, or a rewrite that passed this
        check), so the words a rewrite leaves alone cannot break it.
        """
        if self.err_max > cap:
            return True
        return abs_planes is not None and _max_value(abs_planes) > cap


def _rewrite(current: Netlist, old: int, new: int | None, kind: str) -> Netlist:
    """Build the netlist where every use of ``old`` reads ``new`` (or a tie
    cell for const moves), dead-code eliminated."""
    if new is None:
        current = current.copy()
        new = current.prepend_const(1 if kind == "const1" else 0)
    return current.substitute(old, new).dead_code_eliminate()


def approximate_synthesis(
    netlist: Netlist,
    config: ApproxSynthesisConfig | None = None,
) -> SynthesisResult:
    """Greedily rewrite ``netlist`` to save area within an error budget.

    The error metric is NMED against the *original* netlist's exhaustive
    output, normalized by ``2**n_output_bits - 1``.

    Raises:
        CircuitError: If the netlist has no outputs.
    """
    if not netlist.outputs:
        raise CircuitError("cannot synthesize a netlist without outputs")
    config = config or ApproxSynthesisConfig()
    rng = np.random.default_rng(config.seed)

    golden_values = simulate_words(netlist)
    golden_planes = golden_values[netlist.outputs]
    n_combos = 1 << netlist.n_inputs
    norm = float((1 << len(netlist.outputs)) - 1)
    area_before = area(netlist)
    const_words = {
        "const0": np.zeros(golden_values.shape[1], dtype=np.uint64),
        "const1": np.full(golden_values.shape[1], ~np.uint64(0)),
    }
    const_words["const1"][-1] &= _tail_mask(n_combos)

    current = netlist.copy()
    current_area = area_before
    current_nmed = 0.0
    moves_applied: list[str] = []

    for _ in range(config.max_moves):
        values = simulate_words(current)
        candidates = _candidate_moves(current, values, config, rng)
        trials = _Trials(current, values, golden_planes)
        best: tuple[float, int, int | None, str, float, float] | None = None
        evaluated = 0
        for _score, old, new, kind in candidates:
            if evaluated >= config.candidates_per_round:
                break
            evaluated += 1
            trial_area = trials.area(old, new)
            saved = current_area - trial_area
            if saved <= 0:
                continue
            err_sum, changed = trials.error(
                old, const_words[kind] if new is None else values[new]
            )
            trial_nmed = err_sum / n_combos / norm
            if trial_nmed > config.nmed_budget:
                continue
            if config.maxed_budget is not None and trials.exceeds(
                changed, config.maxed_budget
            ):
                continue
            gain = saved / (max(trial_nmed - current_nmed, 0.0) + 1e-9)
            if best is None or gain > best[0]:
                best = (gain, old, new, kind, trial_nmed, trial_area)
        if best is None:
            break
        _, old, new, kind, current_nmed, current_area = best
        current = _rewrite(current, old, new, kind)
        moves_applied.append(f"{kind}({old}->{new})")

    current = current.topo_sort()
    current.name = f"{netlist.name}_syn"
    return SynthesisResult(
        netlist=current,
        nmed=current_nmed,
        area_before=area_before,
        area_after=current_area,
        moves=moves_applied,
    )
