"""Double-buffered IO prefetch for batch-at-a-time pipelines.

The out-of-core approximation phase alternates two very different
workloads: a gather-read of the next slice batch from a memory-mapped file
(IO-bound, mostly outside the GIL) and the batched SVD of the current
batch (CPU/BLAS-bound).  Running them strictly in sequence leaves one
resource idle at all times.  :class:`Prefetcher` overlaps them with a
single background thread that always stays one item ahead of the consumer
— classic double buffering — and accounts for how much IO time was
actually hidden, which :meth:`repro.engine.trace.PhaseTrace.annotate_io`
surfaces in ``--trace`` output.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterator, Sequence

__all__ = ["IngestQueue", "Prefetcher"]


class Prefetcher:
    """Iterate ``producer(item)`` results one step ahead of the consumer.

    Producing item ``i+1`` starts as soon as item ``i`` has been handed to
    the consumer, so the producer (an IO gather) runs concurrently with
    whatever the consumer does between iterations (an SVD).  Results are
    yielded strictly in item order; an exception raised by the producer
    propagates to the consumer at the corresponding iteration.

    Parameters
    ----------
    producer:
        Callable invoked once per item on the background thread.
    items:
        The work list (materialised up front; pipelines here are batch
        bounds, never large data).
    depth:
        How many items to run ahead of the consumer (default 1 — double
        buffering; at most ``depth`` results are alive at once, which
        bounds peak memory to ``depth + 1`` batches).
    max_depth:
        Upper bound for *adaptive* depth growth.  When the consumer blocks
        on an unfinished prefetch (the IO is slower than the compute it
        should hide), the lookahead is deepened one step at a time up to
        this bound, trading bounded extra batch memory for more overlap on
        bursty or high-latency storage.  ``None`` (default) disables
        growth — the pipeline behaves exactly as a fixed-``depth``
        prefetcher.

    Attributes
    ----------
    wait_seconds:
        Time the consumer spent blocked on an unfinished prefetch — the IO
        that compute did *not* hide.
    produce_seconds:
        Total time spent inside ``producer`` calls — the IO that ran,
        overlapped or not.
    depth_grown:
        How many adaptive depth increments occurred (0 when ``max_depth``
        is ``None`` or the IO kept up).
    """

    def __init__(
        self,
        producer: Callable[[Any], Any],
        items: Sequence[Any],
        *,
        depth: int = 1,
        max_depth: int | None = None,
    ) -> None:
        if int(depth) < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if max_depth is not None and int(max_depth) < int(depth):
            raise ValueError(
                f"max_depth must be >= depth ({depth}), got {max_depth}"
            )
        self._producer = producer
        self._items = list(items)
        self._depth = int(depth)
        self._max_depth = None if max_depth is None else int(max_depth)
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-prefetch"
        )
        self._futures: deque[Future[Any]] = deque()
        self._started = False
        self.wait_seconds = 0.0
        self.produce_seconds = 0.0
        self.depth_grown = 0

    def __len__(self) -> int:
        return len(self._items)

    def _run(self, item: Any) -> Any:
        start = time.perf_counter()
        try:
            return self._producer(item)
        finally:
            self.produce_seconds += time.perf_counter() - start

    def __iter__(self) -> Iterator[Any]:
        if self._started:
            raise RuntimeError("a Prefetcher can only be iterated once")
        self._started = True
        n = len(self._items)
        head = min(self._depth, n)
        for i in range(head):
            self._futures.append(self._pool.submit(self._run, self._items[i]))
        next_item = head
        for _ in range(n):
            fut = self._futures.popleft()
            # The consumer is about to block on IO that compute failed to
            # hide; deepen the lookahead (within the memory budget) so the
            # producer can run further ahead next time.
            if (
                self._max_depth is not None
                and self._depth < self._max_depth
                and not fut.done()
            ):
                self._depth += 1
                self.depth_grown += 1
                if next_item < n:
                    self._futures.append(
                        self._pool.submit(self._run, self._items[next_item])
                    )
                    next_item += 1
            # Keep the pipeline full *before* blocking on the front future:
            # the single worker runs submissions in order, so the next
            # item's IO proceeds while the consumer works on this result.
            if next_item < n:
                self._futures.append(
                    self._pool.submit(self._run, self._items[next_item])
                )
                next_item += 1
            start = time.perf_counter()
            result = fut.result()
            self.wait_seconds += time.perf_counter() - start
            yield result

    def close(self) -> None:
        """Cancel pending work and release the background thread."""
        while self._futures:
            self._futures.popleft().cancel()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "Prefetcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class _Close:
    """Sentinel telling the consumer thread to drain and exit."""


class IngestQueue:
    """Bounded hand-off between a block producer and a streaming fitter.

    Where :class:`Prefetcher` pulls a *known* work list ahead of a
    consumer, the ingest queue is push-based: producers :meth:`put` blocks
    as they arrive and a single consumer thread applies ``consumer`` (the
    fitter) to each, strictly in arrival order.  The queue depth is
    bounded, and ``put`` *blocks* when the fitter falls behind —
    backpressure, so an eager producer can never pile up unbounded
    uncompressed blocks in memory.

    An exception raised by the fitter is captured, the queue stops
    accepting work, and the exception re-raises on the next :meth:`put` or
    on :meth:`join` — mirroring how :class:`Prefetcher` propagates producer
    failures at the consuming call site.

    Parameters
    ----------
    consumer:
        Callable invoked once per block on the consumer thread.
    depth:
        Maximum queued (accepted but not yet fitted) blocks; ``put`` blocks
        once the queue holds this many.

    Attributes
    ----------
    put_wait_seconds:
        Total time producers spent blocked in :meth:`put` — the
        backpressure actually applied.
    consume_seconds:
        Total time inside ``consumer`` calls.
    n_put, n_done:
        Blocks accepted / blocks fitted so far.
    """

    def __init__(self, consumer: Callable[[Any], Any], *, depth: int = 2) -> None:
        if int(depth) < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self._consumer = consumer
        self._queue: queue.Queue[Any] = queue.Queue(maxsize=int(depth))
        self._error: BaseException | None = None
        self._closed = False
        self.put_wait_seconds = 0.0
        self.consume_seconds = 0.0
        self.n_put = 0
        self.n_done = 0
        self._thread = threading.Thread(
            target=self._drain, name="repro-ingest", daemon=True
        )
        self._thread.start()

    @property
    def depth(self) -> int:
        """The configured backpressure bound."""
        return self._queue.maxsize

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if item is _Close:
                    return
                if self._error is None:
                    start = time.perf_counter()
                    try:
                        self._consumer(item)
                        self.n_done += 1
                    except BaseException as exc:  # noqa: BLE001 - re-raised on put/join
                        self._error = exc
                    finally:
                        self.consume_seconds += time.perf_counter() - start
            finally:
                self._queue.task_done()

    def _check_error(self) -> None:
        if self._error is not None:
            exc, self._error = self._error, None
            self._closed = True
            raise exc

    def put(self, block: Any) -> None:
        """Enqueue a block, blocking while the fitter is ``depth`` behind."""
        if self._closed:
            raise RuntimeError("IngestQueue is closed")
        self._check_error()
        start = time.perf_counter()
        self._queue.put(block)
        self.put_wait_seconds += time.perf_counter() - start
        self.n_put += 1

    def join(self) -> None:
        """Block until every accepted block has been fitted (or failed)."""
        self._queue.join()
        self._check_error()

    def close(self) -> None:
        """Drain remaining work, stop the consumer thread, surface errors."""
        if not self._closed:
            self._closed = True
            self._queue.put(_Close)
            self._thread.join()
        self._check_error()

    def __enter__(self) -> "IngestQueue":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is None:
            self.close()
        else:
            # Already unwinding: stop the thread but let the original
            # exception propagate instead of masking it with a queued one.
            self._closed = True
            self._queue.put(_Close)
            self._thread.join()
