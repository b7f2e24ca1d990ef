"""Structured execution traces emitted by every backend.

A :class:`PhaseTrace` records what one algorithm phase (approximation /
initialization / iteration) actually *did* on the execution engine: wall
time, how many chunk tasks ran, how the tasks were distributed over
workers, the chunk sizes used, and the peak resident set size observed at
the end of the phase.  The benchmark harness uses these to attribute
speedups per phase instead of guessing from totals, and
``python -m repro decompose --trace`` prints them for ad-hoc runs.
"""

from __future__ import annotations

import resource
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from ..kernels.stats import KernelStats

__all__ = ["PhaseTrace", "TELEMETRY_HISTORY", "peak_rss_bytes", "format_traces"]

#: Entries a long-lived object keeps of its telemetry history — an engine's
#: :attr:`~repro.engine.base.ExecutionBackend.traces`, a served model's
#: query records, a stream's update traces.  Older entries drop off; the
#: running totals those objects report stay exact.
TELEMETRY_HISTORY = 256


def peak_rss_bytes(*, include_children: bool = True) -> int:
    """Peak resident set size of this process (and, optionally, children).

    Uses ``getrusage`` so no third-party dependency is needed.  On Linux
    ``ru_maxrss`` is in KiB; on macOS it is in bytes.
    """
    unit = 1 if sys.platform == "darwin" else 1024
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return int(peak) * unit


def _new_counters() -> "KernelStats":
    # Imported on use: repro.kernels builds on this package.
    from ..kernels.stats import KernelStats

    return KernelStats()


@dataclass
class PhaseTrace:
    """Execution record of one phase on one backend.

    Attributes
    ----------
    phase:
        Phase label (``"approximation"``, ``"iteration"``, …).
    backend:
        Backend name (``"serial"``, ``"thread"``, ``"process"``).
    n_workers:
        Worker count the backend was configured with.
    seconds:
        Wall-clock seconds spent inside the phase.
    n_tasks:
        Total chunk tasks dispatched during the phase.
    tasks_per_worker:
        Mapping of worker id (thread name or pid) to tasks executed.
    chunk_sizes:
        Distinct chunk sizes used, in first-seen order.
    peak_rss_bytes:
        Peak resident set size (self and child processes) observed when the
        phase closed.  Cumulative per process, so attribute growth, not
        absolute values, to a phase.
    counters:
        The phase's :class:`~repro.kernels.stats.KernelStats` — the one
        place its counter events are recorded: kernel-cache hits/misses and
        buffer reuse, cross-shard communication (``comm:*``, one
        ``comm:reduce`` per coordinator combine round) and planner
        decisions.  A caller's own ``KernelStats`` gets these merged in
        once, when the phase closes.
    io_seconds:
        Time spent inside prefetch IO producers during the phase (the
        out-of-core gather reads), overlapped with compute or not.  See
        :class:`repro.engine.pipeline.Prefetcher`.
    io_wait_seconds:
        Time the consumer actually *blocked* on prefetch IO — the part of
        ``io_seconds`` that compute failed to hide.
    busy_seconds_per_worker:
        Mapping of worker id to time spent *inside* chunk kernels.  The
        spread of these values is the load balance:
        :meth:`imbalance_ratio` is their max/mean.
    queue_wait_seconds:
        Total time tasks sat between submission and execution start,
        summed over tasks.  High values with an idle-worker imbalance mean
        chunks were too coarse; high values with all workers busy just
        measure healthy queue depth.
    steals:
        Tasks a worker pulled from the shared queue *beyond its first* in a
        parallel dispatch — the work-stealing events that rebalanced the
        oversplit plan.
    """

    phase: str
    backend: str
    n_workers: int
    seconds: float = 0.0
    n_tasks: int = 0
    tasks_per_worker: dict[str, int] = field(default_factory=dict)
    chunk_sizes: list[int] = field(default_factory=list)
    peak_rss_bytes: int = 0
    io_seconds: float = 0.0
    io_wait_seconds: float = 0.0
    busy_seconds_per_worker: dict[str, float] = field(default_factory=dict)
    queue_wait_seconds: float = 0.0
    steals: int = 0
    counters: "KernelStats" = field(default_factory=_new_counters)

    @property
    def reduce_rounds(self) -> int:
        """Coordinator combine rounds of the phase (``comm:reduce`` events)."""
        return self.counters.misses_for("comm:reduce")

    def record_task(
        self,
        worker_id: str,
        chunk_size: int,
        *,
        busy_seconds: float = 0.0,
        wait_seconds: float = 0.0,
    ) -> None:
        """Tally one executed chunk task (and its scheduling telemetry)."""
        self.n_tasks += 1
        key = str(worker_id)
        self.tasks_per_worker[key] = self.tasks_per_worker.get(key, 0) + 1
        if int(chunk_size) not in self.chunk_sizes:
            self.chunk_sizes.append(int(chunk_size))
        if busy_seconds:
            self.busy_seconds_per_worker[key] = (
                self.busy_seconds_per_worker.get(key, 0.0) + float(busy_seconds)
            )
        if wait_seconds > 0.0:
            self.queue_wait_seconds += float(wait_seconds)

    def imbalance_ratio(self) -> float:
        """Max/mean worker busy time — 1.0 is perfect balance.

        Falls back to the task-count distribution when busy times were not
        recorded (synthetic traces), and to 1.0 when fewer than two workers
        reported work.
        """
        values = [v for v in self.busy_seconds_per_worker.values() if v > 0.0]
        if len(values) < 2:
            values = [float(v) for v in self.tasks_per_worker.values()]
        if len(values) < 2:
            return 1.0
        mean = sum(values) / len(values)
        return max(values) / mean if mean > 0.0 else 1.0

    def annotate_io(
        self, *, produce_seconds: float = 0.0, wait_seconds: float = 0.0
    ) -> None:
        """Accumulate prefetch-pipeline IO counters into this trace."""
        self.io_seconds += float(produce_seconds)
        self.io_wait_seconds += float(wait_seconds)

    def summary(self) -> str:
        """One-line human-readable summary."""
        workers = len(self.tasks_per_worker)
        chunks = ",".join(str(c) for c in self.chunk_sizes) or "-"
        c = self.counters
        line = (
            f"{self.phase}: {self.seconds:.4f}s backend={self.backend} "
            f"tasks={self.n_tasks} workers={workers}/{self.n_workers} "
            f"chunks=[{chunks}] peak_rss={self.peak_rss_bytes / 2**20:.1f}MiB"
        )
        if c.hits or c.misses or c.bytes_reused:
            line += (
                f" cache={c.hits}h/{c.misses}m"
                f" reuse={c.bytes_reused / 2**20:.1f}MiB"
            )
        if self.io_seconds or self.io_wait_seconds:
            line += (
                f" io={self.io_seconds:.4f}s"
                f" io_wait={self.io_wait_seconds:.4f}s"
            )
        if self.busy_seconds_per_worker:
            line += f" imbalance={self.imbalance_ratio():.2f}"
        if self.steals:
            line += f" steals={self.steals}"
        if self.queue_wait_seconds:
            line += f" qwait={self.queue_wait_seconds:.4f}s"
        refined, fallbacks = c.factor_updates()
        if refined or fallbacks:
            line += f" updates={refined}w/{fallbacks}e"
        if c.bytes_comm or self.reduce_rounds:
            line += (
                f" comm={c.bytes_comm / 2**20:.1f}MiB"
                f" reduces={self.reduce_rounds}"
            )
        return line


def format_traces(traces: Iterable[PhaseTrace]) -> str:
    """Multi-line report of a trace list, one phase per line."""
    lines = [t.summary() for t in traces]
    return "\n".join(lines) if lines else "(no traces recorded)"
