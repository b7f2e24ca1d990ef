"""Cache accounting for the sweep-level kernel layer.

Every cached quantity in :class:`~repro.kernels.workspace.SweepWorkspace`
(the ``A(1)ᵀU`` / ``VᵀA(2)`` projection stacks, the doubly-projected ``W``
tensor, TTM-chain prefixes) records a hit or a miss under a short kernel
name.  The counters are cheap plain integers.  Each phase records its
events once, into its :attr:`~repro.engine.trace.PhaseTrace.counters`
(:func:`record_into` points a workspace there for the phase); longer-lived
tallies — a fit's ``kernel_stats``, a stream's ``kernel_stats_`` — get the
phase's counters merged in when it closes.  The trace is what
``python -m repro decompose --trace`` prints and what the perf-smoke CI
job asserts on (at most one ``w`` evaluation per sweep).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["KernelStats", "record_into"]


@dataclass
class KernelStats:
    """Hit/miss tallies per kernel plus workspace-buffer reuse in bytes.

    Attributes
    ----------
    counts:
        Mapping of kernel name (``"au"``, ``"av"``, ``"w"``, ``"chain"``) to
        a ``[hits, misses]`` pair.
    bytes_reused:
        Bytes served from preallocated workspace buffers instead of fresh
        allocations.
    sweeps:
        ALS sweeps the workspace has executed (used to normalise
        per-sweep evaluation counts).
    signals:
        Measured values a decision was taken on, by name (a one-shot
        fit's ``"power:residual_share"``, see :mod:`repro.core
        .fit_pipeline`); merging keeps the latest value.
    """

    counts: dict[str, list[int]] = field(default_factory=dict)
    bytes_reused: int = 0
    sweeps: int = 0
    bytes_comm: int = 0
    signals: dict[str, float] = field(default_factory=dict)

    # -- recording ---------------------------------------------------------
    def record_hit(self, name: str) -> None:
        self.counts.setdefault(name, [0, 0])[0] += 1

    def record_miss(self, name: str) -> None:
        self.counts.setdefault(name, [0, 0])[1] += 1

    def record_comm(self, kind: str, nbytes: int) -> None:
        """Record one cross-shard communication event.

        ``kind`` names the traffic class: ``"ship"`` for shard→coordinator
        factor products, ``"bcast"`` for coordinator→shard broadcast state
        (sketches, factor blocks), ``"reduce"`` for one combine round on the
        coordinator.  Each event counts as a miss under ``comm:<kind>`` and
        the bytes accumulate on :attr:`bytes_comm`, so the distributed layer
        can prove reduce traffic stays ``O((I1+I2+1)·K)`` per slice.
        """
        self.record_miss(f"comm:{kind}")
        self.bytes_comm += int(nbytes)

    def record(self, name: str, *, hit: bool) -> None:
        """Record one lookup under ``name`` as a hit or a miss.

        Convenience for callers that hold the outcome as a boolean (the
        serving-layer caches); equivalent to calling :meth:`record_hit` or
        :meth:`record_miss`.
        """
        if hit:
            self.record_hit(name)
        else:
            self.record_miss(name)

    # -- aggregates --------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(pair[0] for pair in self.counts.values())

    @property
    def misses(self) -> int:
        return sum(pair[1] for pair in self.counts.values())

    def hits_for(self, name: str) -> int:
        return self.counts.get(name, [0, 0])[0]

    def misses_for(self, name: str) -> int:
        return self.counts.get(name, [0, 0])[1]

    @property
    def w_evals(self) -> int:
        """Actual ``W = X̃ ×_1 A(1)ᵀ ×_2 A(2)ᵀ`` evaluations (cache misses)."""
        return self.misses_for("w")

    @property
    def sketch_draws(self) -> int:
        """Gaussian test-matrix draws recorded by the compression planner.

        The planner amortises sketching to one draw per slab/batch; the
        perf-smoke CI job asserts this never exceeds the batch count.
        """
        return self.misses_for("sketch")

    def plan_decisions(self) -> dict[str, int]:
        """Compression-planner decisions per method, e.g. ``{"gram": 4}``.

        Each :func:`repro.kernels.compress_plan.execute_plan` call records
        its chosen method under ``plan:<method>``.
        """
        return {
            name.split(":", 1)[1]: pair[1]
            for name, pair in self.counts.items()
            if name.startswith("plan:")
        }

    def factor_updates(self) -> tuple[int, int]:
        """A warm solve's factor updates: ``(refined, fell back)``.

        :func:`repro.linalg.svd.refine_left_singular_vectors` records each
        update as a ``factor:warm`` or a ``factor:eigh`` miss.
        """
        return self.misses_for("factor:warm"), self.misses_for("factor:eigh")

    def w_evals_per_sweep(self) -> float:
        """Average ``W`` evaluations per completed sweep (``inf`` pre-sweep)."""
        if self.sweeps <= 0:
            return float("inf") if self.w_evals else 0.0
        return self.w_evals / self.sweeps

    def merge(self, other: "KernelStats") -> None:
        """Fold another stats object into this one (streaming accumulation)."""
        for name, (h, m) in other.counts.items():
            pair = self.counts.setdefault(name, [0, 0])
            pair[0] += h
            pair[1] += m
        self.bytes_reused += other.bytes_reused
        self.sweeps += other.sweeps
        self.bytes_comm += other.bytes_comm
        self.signals.update(other.signals)

    # -- snapshots ---------------------------------------------------------
    def copy(self) -> "KernelStats":
        return KernelStats(
            counts={k: list(v) for k, v in self.counts.items()},
            bytes_reused=self.bytes_reused,
            sweeps=self.sweeps,
            bytes_comm=self.bytes_comm,
            signals=dict(self.signals),
        )

    def delta(self, earlier: "KernelStats") -> "KernelStats":
        """Counters accumulated since ``earlier`` (a prior :meth:`copy`)."""
        counts: dict[str, list[int]] = {}
        for name, (h, m) in self.counts.items():
            eh, em = earlier.counts.get(name, [0, 0])
            if h - eh or m - em:
                counts[name] = [h - eh, m - em]
        return KernelStats(
            counts=counts,
            bytes_reused=self.bytes_reused - earlier.bytes_reused,
            sweeps=self.sweeps - earlier.sweeps,
            bytes_comm=self.bytes_comm - earlier.bytes_comm,
        )

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view (used by the sweep-kernel benchmark)."""
        return {
            "counts": {k: {"hits": v[0], "misses": v[1]} for k, v in self.counts.items()},
            "hits": self.hits,
            "misses": self.misses,
            "bytes_reused": self.bytes_reused,
            "sweeps": self.sweeps,
            "w_evals": self.w_evals,
            "bytes_comm": self.bytes_comm,
            "signals": dict(self.signals),
        }

    def summary(self) -> str:
        """One-line human-readable summary, mirroring PhaseTrace style."""
        per_kernel = " ".join(
            f"{name}={pair[0]}h/{pair[1]}m" for name, pair in sorted(self.counts.items())
        )
        comm = ""
        if self.bytes_comm:
            comm = f" comm={self.bytes_comm / 2**20:.1f}MiB"
        signals = "".join(
            f" {name}={value:.3g}" for name, value in sorted(self.signals.items())
        )
        return (
            f"kernel cache: {self.hits} hits / {self.misses} misses "
            f"[{per_kernel or '-'}] reuse={self.bytes_reused / 2**20:.1f}MiB "
            f"sweeps={self.sweeps}" + comm + signals
        )


@contextmanager
def record_into(owner: Any, counters: KernelStats) -> Iterator[KernelStats]:
    """Point ``owner.stats`` at a phase's ``counters`` inside the block.

    Every event ``owner`` records in the block lands in ``counters`` once;
    when the block ends ``owner.stats`` is restored and gets the block's
    counters merged in.
    """
    lifetime, owner.stats = owner.stats, counters
    try:
        yield counters
    finally:
        owner.stats = lifetime
        if lifetime is not counters:
            lifetime.merge(counters)
