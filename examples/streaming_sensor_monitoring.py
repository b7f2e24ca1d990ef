"""Streaming decomposition of a growing sensor tensor.

Air-quality-style deployments append a new block of measurements every few
days.  Refitting Tucker from scratch on the whole history gets slower every
time; :class:`repro.StreamingDTucker` instead compresses and projects only
the new block (its one update mode costs O(block)), keeping update cost
flat while matching batch accuracy; its drift watchdog re-derives the
factors from the live window whenever the error drifts.  This example
streams twelve blocks and compares both approaches (time per update,
error after each update, watchdog refreshes).

Run:
    python examples/streaming_sensor_monitoring.py
"""

from __future__ import annotations

import time

from repro import DTucker, StreamingDTucker
from repro.datasets import airquality_like


def main() -> None:
    n_stations, n_pollutants = 300, 6
    block_len, n_blocks = 16, 12
    full = airquality_like(
        n_stations, block_len * n_blocks, n_pollutants, seed=5
    ).transpose(0, 2, 1)  # (station, pollutant, time): temporal mode last
    print(
        f"stream: {n_blocks} blocks of {block_len} timesteps, "
        f"tensor grows to {full.shape}"
    )

    ranks = (8, 4, 6)
    stream = StreamingDTucker(ranks=ranks, sweeps_per_update=4, seed=0)

    print(f"\n{'block':>5s} {'stream_s':>9s} {'batch_s':>8s} "
          f"{'stream_err':>10s} {'batch_err':>9s}")
    for b in range(n_blocks):
        block = full[..., b * block_len : (b + 1) * block_len]
        seen = full[..., : (b + 1) * block_len]

        t0 = time.perf_counter()
        stream.partial_fit(block)
        stream_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        batch = DTucker(ranks=ranks, seed=0).fit(seen)
        batch_s = time.perf_counter() - t0

        stream_err = stream.result_.error(seen)
        batch_err = batch.result_.error(seen)
        print(
            f"{b:5d} {stream_s:9.4f} {batch_s:8.4f} "
            f"{stream_err:10.5f} {batch_err:9.5f}"
        )

    total = stream.timings_.total
    print(f"\ntotal streaming compute: {total:.3f}s "
          f"({stream.timings_.summary()})")
    print(f"watchdog refreshes: {stream.watchdog_triggers_} "
          f"(drift budget {stream.drift_budget})")
    print(
        "note: streaming compresses each block exactly once; the batch "
        "column re-reads the full history every update."
    )


if __name__ == "__main__":
    main()
