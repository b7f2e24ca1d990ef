"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``datasets``
    List the registered dataset simulators and their shapes per scale.
``generate``
    Materialise a dataset to a ``.npy`` file.
``decompose``
    Tucker-decompose a ``.npy`` tensor with any registered method; print
    timings/error and optionally save the result and (for D-Tucker) the
    reusable compressed representation.
``compare``
    Run several methods on one tensor and print the comparison table.
``suggest-ranks``
    Compress a tensor and report the ranks meeting a target error.
``fit``
    Fit D-Tucker and persist the model as a store directory
    (``manifest.json`` + memory-mappable payloads); ``--index`` also
    persists the dyadic range index for accelerated range queries.
``query``
    Answer reconstruction and time-range queries from a saved store —
    no tensor access, no re-compression.  ``--ranges A:B,C:D,...`` batches
    several time-range queries through one shared-index reader pool.
``index``
    Build (or drop) a store's persisted dyadic range index.
``inspect``
    Report a store's manifest: geometry, ranks, sizes, fit history,
    range-index payload.

All commands are plain functions over validated arguments so they are unit
testable without subprocesses; ``main`` only does argument parsing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["main"]


def _parse_ranks(text: str) -> tuple[int, ...] | int:
    parts = [p for p in text.replace(" ", "").split(",") if p]
    values = tuple(int(p) for p in parts)
    return values[0] if len(values) == 1 else values


def _config_from_args(args: argparse.Namespace) -> "object":
    """Build the :class:`DTuckerConfig` shared by every solver command."""
    from .core.config import DTuckerConfig

    return DTuckerConfig(
        seed=getattr(args, "seed", None),
        backend=getattr(args, "backend", None) or "auto",
        n_workers=getattr(args, "workers", None),
        chunk_size=getattr(args, "chunk_size", None),
        precision=getattr(args, "precision", None) or "float64",
    )


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=("auto", "serial", "thread", "process"),
        default=None,
        help="execution backend (default: auto — REPRO_BACKEND env, else serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="worker count for parallel backends"
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, help="slices per engine task"
    )


def _add_planner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--precision",
        choices=("float64", "float32"),
        default=None,
        help=(
            "compute dtype of the approximation phase (float32 halves "
            "memory traffic; norms still accumulate in float64)"
        ),
    )


def _load_tensor(path: str) -> np.ndarray:
    """Load a tensor from ``.npy`` or from ``dataset:<name>[:<scale>]``."""
    if path.startswith("dataset:"):
        from .datasets import load_dataset

        _, name, *rest = path.split(":")
        scale = rest[0] if rest else "small"
        return load_dataset(name, scale, seed=0).tensor
    return np.load(Path(path), allow_pickle=False)


def cmd_datasets(_: argparse.Namespace) -> int:
    from .datasets import list_datasets
    from .datasets.registry import get_spec
    from .experiments.report import format_table

    rows = []
    for name in list_datasets():
        spec = get_spec(name)
        for scale, shape in spec.shapes.items():
            rows.append([name, scale, "x".join(map(str, shape)), spec.description])
    print(format_table(["dataset", "scale", "shape", "stands in for"], rows))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from .datasets import load_dataset

    data = load_dataset(args.name, args.scale, seed=args.seed)
    out = Path(args.output)
    np.save(out, data.tensor)
    print(
        f"wrote {data.name} ({args.scale}) shape={data.shape} "
        f"ranks={data.ranks} -> {out}"
    )
    return 0


def cmd_decompose(args: argparse.Namespace) -> int:
    from .experiments.harness import METHOD_NAMES, run_method

    if args.method not in METHOD_NAMES:
        print(
            f"unknown method {args.method!r}; choose from {', '.join(METHOD_NAMES)}",
            file=sys.stderr,
        )
        return 2
    x = _load_tensor(args.tensor)
    ranks = _parse_ranks(args.ranks)
    cfg = _config_from_args(args)

    if args.trace and args.method != "dtucker":
        print(
            "note: --trace is recorded by the dtucker engine only",
            file=sys.stderr,
        )
    if args.method == "dtucker" and (args.output or args.save_compressed or args.trace):
        # Run through the estimator directly so artifacts (and the engine
        # trace) can be surfaced.
        from .core.dtucker import DTucker
        from .engine import format_traces
        from .store import write_slice_svd_archive, write_tucker_archive

        model = DTucker(ranks, config=cfg).fit(x)
        print(f"method=dtucker shape={x.shape} ranks={model.result_.ranks}")
        print(f"timings: {model.timings_.summary()}")
        print(f"error  : {model.exact_error_:.6f}")
        if args.trace:
            print(format_traces(model.trace_))
            if model.kernel_stats_ is not None:
                print(model.kernel_stats_.summary())
                decisions = model.kernel_stats_.plan_decisions()
                if decisions:
                    picks = " ".join(
                        f"{m}={n}" for m, n in sorted(decisions.items())
                    )
                    print(
                        f"planner: {picks} "
                        f"sketch_draws={model.kernel_stats_.sketch_draws}"
                    )
        if args.output:
            print(f"result -> {write_tucker_archive(model.result_, args.output)}")
        if args.save_compressed:
            print(
                f"compressed slices -> "
                f"{write_slice_svd_archive(model.slice_svd_, args.save_compressed)}"
            )
        return 0

    record = run_method(args.method, x, ranks, seed=args.seed, config=cfg)
    print(f"method={record.method} shape={record.shape} ranks={record.ranks}")
    phases = " ".join(f"{k}={v:.4f}s" for k, v in record.phases.items())
    print(f"timings: {phases} total={record.total_seconds:.4f}s")
    print(f"error  : {record.error:.6f}")
    print(f"stored : {record.stored_nbytes} bytes")
    if args.output:
        # The harness result is not retained; saving via a direct method
        # call would duplicate work, so reject politely.
        print(
            "--output is only supported with --method dtucker", file=sys.stderr
        )
        return 2
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .experiments.harness import METHOD_NAMES, run_method
    from .experiments.report import format_records

    methods = (
        list(METHOD_NAMES)
        if args.methods == "all"
        else [m for m in args.methods.split(",") if m]
    )
    unknown = [m for m in methods if m not in METHOD_NAMES]
    if unknown:
        print(
            f"unknown methods {unknown}; choose from {', '.join(METHOD_NAMES)}",
            file=sys.stderr,
        )
        return 2
    x = _load_tensor(args.tensor)
    ranks = _parse_ranks(args.ranks)
    cfg = _config_from_args(args)
    records = [
        run_method(m, x, ranks, dataset=args.tensor, seed=args.seed, config=cfg)
        for m in methods
    ]
    print(format_records(records))
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    from .core.sources import NpySource, compress_source
    from .engine import format_traces, resolve_backend
    from .kernels.stats import KernelStats
    from .store import write_slice_svd_archive

    from dataclasses import replace

    cfg = replace(
        _config_from_args(args),
        oversampling=args.oversampling,
        power_iterations=args.power_iterations,
    )
    stats = KernelStats()
    eng = resolve_backend(config=cfg)
    try:
        with eng.collect() as traces:
            ssvd = compress_source(
                NpySource(args.tensor),
                args.rank,
                batch_slices=args.batch_slices,
                config=cfg,
                engine=eng,
                rng=args.seed,
                stats=stats,
            )
    finally:
        eng.close()
    path = write_slice_svd_archive(ssvd, args.output)
    dense = int(np.prod(ssvd.shape, dtype=np.int64)) * 8
    print(f"shape       : {ssvd.shape} ({ssvd.num_slices} slices)")
    print(f"slice rank  : {ssvd.rank}")
    print(
        f"compressed  : {ssvd.nbytes} bytes "
        f"({dense / ssvd.nbytes:.1f}x smaller than dense float64)"
    )
    print(f"archive     : {path}")
    if args.trace:
        print(format_traces(traces))
        decisions = stats.plan_decisions()
        picks = " ".join(f"{m}={n}" for m, n in sorted(decisions.items()))
        print(f"planner     : {picks or '-'} sketch_draws={stats.sketch_draws}")
    return 0


def cmd_suggest_ranks(args: argparse.Namespace) -> int:
    from .core.rank_selection import estimate_error, suggest_ranks
    from .core.slice_svd import compress

    if str(args.tensor).endswith(".npz"):
        # A previously saved SliceSVD archive: no tensor access at all.
        from .store import read_slice_svd_archive

        ssvd = read_slice_svd_archive(args.tensor)
        shape = ssvd.shape
    else:
        x = _load_tensor(args.tensor)
        k = args.slice_rank or max(2, min(x.shape[0], x.shape[1], 32))
        ssvd = compress(x, min(k, min(x.shape[:2])), rng=args.seed)
        shape = x.shape
    ranks = suggest_ranks(ssvd, args.target_error, max_rank=args.max_rank)
    estimated = estimate_error(ssvd, ranks)
    print(f"shape         : {shape}")
    print(f"target error  : {args.target_error}")
    print(f"suggested     : {ranks}")
    print(f"estimated err : {estimated:.6f} (HOSVD-style upper bound)")
    return 0


def _parse_index_ranges(
    text: str, order: int
) -> "list[tuple[int, int] | None]":
    """Parse ``"0:5,:,2:4"`` into per-mode ranges (``:`` = full extent)."""
    from .exceptions import StoreError

    parts = text.split(",")
    if len(parts) != order:
        raise StoreError(
            f"--block needs {order} comma-separated ranges (one per mode), "
            f"got {len(parts)}"
        )
    ranges: "list[tuple[int, int] | None]" = []
    for part in parts:
        p = part.strip()
        if p in ("", ":"):
            ranges.append(None)
            continue
        try:
            lo, hi = p.split(":")
            ranges.append((int(lo), int(hi)))
        except ValueError:
            raise StoreError(
                f"bad range {part!r}: expected start:stop or ':'"
            ) from None
    return ranges


def _parse_time_ranges(text: str) -> "list[tuple[int, int]]":
    """Parse ``"0:24,96:144,..."`` into ``(t0, t1)`` timestep ranges."""
    from .exceptions import StoreError

    ranges: "list[tuple[int, int]]" = []
    for part in text.split(","):
        p = part.strip()
        if not p:
            continue
        try:
            lo, hi = p.split(":")
            ranges.append((int(lo), int(hi)))
        except ValueError:
            raise StoreError(
                f"bad time range {part!r}: expected T0:T1"
            ) from None
    if not ranges:
        raise StoreError("--ranges needs at least one T0:T1 range")
    return ranges


def cmd_fit(args: argparse.Namespace) -> int:
    from .core.dtucker import DTucker

    x = _load_tensor(args.tensor)
    ranks = _parse_ranks(args.ranks)
    cfg = _config_from_args(args)
    model = DTucker(ranks, slice_rank=args.slice_rank, config=cfg).fit(x)
    print(f"fitted shape={x.shape} ranks={model.result_.ranks}")
    print(f"timings: {model.timings_.summary()}")
    print(f"error  : {model.exact_error_:.6f}")
    if args.save:
        store = model.save(args.save, overwrite=args.overwrite)
        print(f"store  : {store.path} ({store.nbytes} bytes, "
              f"{store.compression_ratio:.2f}x vs dense)")
        if args.index:
            index = store.build_index()
            print(
                f"index  : {index.n_nodes} nodes "
                f"(min_span {index.min_span}, {index.nbytes} bytes)"
            )
    elif args.index:
        print("--index requires --save", file=sys.stderr)
        return 2
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .store import ModelStore, write_tucker_archive

    chosen = [
        v for v in (args.time_range, args.ranges, args.block) if v is not None
    ]
    if len(chosen) != 1:
        print(
            "error: pass exactly one of --time-range T0:T1, "
            "--ranges A:B,C:D,... or --block",
            file=sys.stderr,
        )
        return 2
    store = ModelStore(args.store)
    with store.open() as served:
        if args.time_range is not None:
            try:
                t0, t1 = (int(v) for v in args.time_range.split(":"))
            except ValueError:
                print(
                    f"error: bad --time-range {args.time_range!r}; "
                    "expected T0:T1",
                    file=sys.stderr,
                )
                return 2
            ranks = _parse_ranks(args.ranks) if args.ranks else None
            local = served.query_time_range(t0, t1, ranks=ranks)
            print(
                f"time range [{t0}, {t1}) -> local Tucker "
                f"ranks={local.ranks} of sub-tensor {local.shape}"
            )
            if args.output:
                print(f"result -> {write_tucker_archive(local, args.output)}")
        elif args.ranges is not None:
            ranges = _parse_time_ranges(args.ranges)
            ranks = _parse_ranks(args.ranks) if args.ranks else None
            answers = served.query_many(
                ranges, ranks=ranks, max_workers=args.readers
            )
            for (t0, t1), local in zip(ranges, answers):
                print(
                    f"time range [{t0}, {t1}) -> local Tucker "
                    f"ranks={local.ranks} of sub-tensor {local.shape}"
                )
            if args.output:
                print(
                    "--output is not supported with batched --ranges; "
                    "query ranges individually with --time-range",
                    file=sys.stderr,
                )
                return 2
        else:
            ranges = _parse_index_ranges(args.block, len(served.shape))
            block = served.reconstruct(ranges)
            print(f"reconstructed block shape={block.shape}")
            if args.output:
                out = Path(args.output)
                np.save(out, block)
                print(f"block -> {out}")
        print(f"serving: {served.stats.summary()}")
        print(
            f"cache  : hits={served.stats.cache_hits} "
            f"misses={served.stats.cache_misses} "
            f"warm_starts={served.stats.warm_starts}"
        )
    return 0


def cmd_index(args: argparse.Namespace) -> int:
    from .store import ModelStore

    store = ModelStore(args.store)
    if args.drop:
        had = store.has_index
        store.drop_index()
        print(f"index dropped at {store.path}" if had else "no index to drop")
        return 0
    index = store.build_index(min_span=args.min_span)
    print(
        f"index  : {index.n_nodes} nodes over extent {index.extent} "
        f"(min_span {index.min_span}, {index.nbytes} bytes) -> "
        f"{store.path / 'index'}"
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from .store import ModelStore

    print(ModelStore(args.store).describe())
    return 0


def _stream_blocks(source: str) -> "list[Path]":
    """Resolve the ingest source: a directory of ``.npy`` blocks or ``-``.

    A directory yields its ``*.npy`` files in sorted (lexicographic) order;
    ``-`` reads one block path per line from stdin, in arrival order.
    """
    if source == "-":
        paths = [Path(line.strip()) for line in sys.stdin if line.strip()]
    else:
        root = Path(source)
        if not root.is_dir():
            raise SystemExit(f"error: {source} is not a directory (or '-')")
        paths = sorted(root.glob("*.npy"))
    if not paths:
        raise SystemExit(f"error: no .npy blocks found in {source}")
    return paths


def cmd_stream(args: argparse.Namespace) -> int:
    import time as _time

    from .core.streaming import StreamingDTucker

    cfg = _config_from_args(args)
    model = StreamingDTucker(
        _parse_ranks(args.ranks),
        slice_rank=args.slice_rank,
        sweeps_per_update=args.sweeps,
        config=cfg,
        window=args.window,
        decay=args.decay,
        drift_budget=args.drift_budget,
    )
    paths = _stream_blocks(args.blocks)
    print(f"streaming {len(paths)} blocks (drift_budget={model.drift_budget}"
          + (f", window={model.window}" if model.window else "")
          + (f", decay={model.decay}" if model.decay else "")
          + ")")
    for path in paths:
        block = np.load(path, allow_pickle=False)
        start = _time.perf_counter()
        model.partial_fit(block)
        elapsed = _time.perf_counter() - start
        line = (
            f"  {path.name}: +{block.shape[-1]} steps -> extent "
            f"{model.shape_[-1]} err={model.history_[-1]:.6f} "
            f"{elapsed * 1e3:.1f}ms"
        )
        if model.watchdog_triggers_:
            line += f" watchdog={model.watchdog_triggers_}"
        print(line)
    print(
        f"ingested {model.n_updates_} blocks, {model.t_seen_} steps total; "
        f"final err={model.history_[-1]:.6f}"
    )
    stats = model.kernel_stats_
    print(
        "projection reuse: "
        f"{stats.hits_for('stream:proj')} cached rows, "
        f"{stats.misses_for('stream:proj')} computed"
    )
    if args.save:
        store = model.save(args.save, overwrite=args.overwrite)
        print(f"store  : {store.path} ({store.nbytes} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="D-Tucker reproduction: Tucker decomposition tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset simulators").set_defaults(
        func=cmd_datasets
    )

    g = sub.add_parser("generate", help="write a dataset tensor to .npy")
    g.add_argument("name")
    g.add_argument("--scale", default="small")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("decompose", help="Tucker-decompose a .npy tensor")
    d.add_argument("tensor", help=".npy file or dataset:<name>[:<scale>]")
    d.add_argument("--ranks", required=True, help="e.g. 10,10,10 or 10")
    d.add_argument("--method", default="dtucker")
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("-o", "--output", help="save TuckerResult (.npz)")
    d.add_argument("--save-compressed", help="save SliceSVD (.npz, dtucker only)")
    d.add_argument(
        "--trace",
        action="store_true",
        help="print the engine's per-phase execution trace (dtucker only)",
    )
    _add_backend_flags(d)
    _add_planner_flags(d)
    d.set_defaults(func=cmd_decompose)

    c = sub.add_parser("compare", help="compare methods on one tensor")
    c.add_argument("tensor", help=".npy file or dataset:<name>[:<scale>]")
    c.add_argument("--ranks", required=True)
    c.add_argument("--methods", default="all", help="comma list or 'all'")
    c.add_argument("--seed", type=int, default=0)
    _add_backend_flags(c)
    c.set_defaults(func=cmd_compare)

    k = sub.add_parser(
        "compress",
        help="out-of-core compression of a .npy tensor into a SliceSVD archive",
    )
    k.add_argument("tensor", help=".npy file (memory-mapped, never fully loaded)")
    k.add_argument("--rank", type=int, required=True)
    k.add_argument("--batch-slices", type=int, default=64)
    k.add_argument("--oversampling", type=int, default=10)
    k.add_argument("--power-iterations", type=int, default=1)
    k.add_argument("--seed", type=int, default=0)
    k.add_argument(
        "--trace",
        action="store_true",
        help="print the execution trace and planner decisions",
    )
    k.add_argument("-o", "--output", required=True, help="SliceSVD archive (.npz)")
    _add_backend_flags(k)
    _add_planner_flags(k)
    k.set_defaults(func=cmd_compress)

    f = sub.add_parser(
        "fit", help="fit D-Tucker and save the model as a store directory"
    )
    f.add_argument("tensor", help=".npy file or dataset:<name>[:<scale>]")
    f.add_argument("--ranks", required=True, help="e.g. 10,10,10 or 10")
    f.add_argument("--slice-rank", type=int, default=None)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument(
        "--save", help="model store directory (manifest + mappable payloads)"
    )
    f.add_argument(
        "--overwrite",
        action="store_true",
        help="replace an existing store at --save",
    )
    f.add_argument(
        "--index",
        action="store_true",
        help="also build and persist the dyadic range index (needs --save)",
    )
    _add_backend_flags(f)
    _add_planner_flags(f)
    f.set_defaults(func=cmd_fit)

    q = sub.add_parser(
        "query", help="answer queries from a saved model store"
    )
    q.add_argument("store", help="model store directory written by 'fit --save'")
    q.add_argument(
        "--time-range",
        help="T0:T1 — local Tucker decomposition of that timestep range",
    )
    q.add_argument(
        "--ranges",
        help="batched time ranges A:B,C:D,... answered together via "
        "query_many (shared index nodes + result cache)",
    )
    q.add_argument(
        "--block",
        help="per-mode start:stop list (':' = full), e.g. '0:5,:,2:4' — "
        "reconstruct that dense block",
    )
    q.add_argument("--ranks", help="override ranks for --time-range/--ranges")
    q.add_argument(
        "--readers",
        type=int,
        default=None,
        help="reader threads for --ranges (default: one per distinct range, "
        "capped at the CPU count)",
    )
    q.add_argument(
        "-o", "--output",
        help="save the answer (.npz Tucker archive or .npy block)",
    )
    q.set_defaults(func=cmd_query)

    x = sub.add_parser(
        "index", help="build or drop a store's persisted range index"
    )
    x.add_argument("store", help="model store directory")
    x.add_argument(
        "--min-span",
        type=int,
        default=None,
        help="smallest indexed node span (power of two; default: auto)",
    )
    x.add_argument(
        "--drop", action="store_true", help="remove the persisted index"
    )
    x.set_defaults(func=cmd_index)

    st = sub.add_parser(
        "stream",
        help="ingest temporal .npy blocks into a streaming Tucker model",
    )
    st.add_argument(
        "blocks",
        help="directory of .npy blocks (sorted order) or '-' for block "
        "paths on stdin, one per line",
    )
    st.add_argument("--ranks", required=True, help="e.g. 10,10,10 or 10")
    st.add_argument("--slice-rank", type=int, default=None)
    st.add_argument("--seed", type=int, default=0)
    st.add_argument("--sweeps", type=int, default=5, help="ALS sweeps per update")
    st.add_argument(
        "--window",
        type=int,
        default=None,
        help="sliding window: keep only the newest N temporal steps",
    )
    st.add_argument(
        "--decay",
        type=float,
        default=None,
        help="exponential down-weighting per temporal step, in (0, 1]",
    )
    st.add_argument(
        "--drift-budget",
        type=float,
        default=None,
        help="relative error-drift budget triggering a full factor refresh "
        "(default 0.05)",
    )
    st.add_argument(
        "--save", help="persist the model (and resume state) as a store dir"
    )
    st.add_argument(
        "--overwrite",
        action="store_true",
        help="replace an existing store at --save",
    )
    _add_backend_flags(st)
    _add_planner_flags(st)
    st.set_defaults(func=cmd_stream)

    i = sub.add_parser("inspect", help="report a model store's manifest")
    i.add_argument("store", help="model store directory")
    i.set_defaults(func=cmd_inspect)

    s = sub.add_parser("suggest-ranks", help="ranks meeting a target error")
    s.add_argument("tensor", help=".npy file or dataset:<name>[:<scale>]")
    s.add_argument("--target-error", type=float, default=0.01)
    s.add_argument("--slice-rank", type=int, default=None)
    s.add_argument("--max-rank", type=int, default=None)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_suggest_ranks)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code.

    Library errors (bad ranks, unknown datasets, malformed archives) are
    reported on stderr with exit code 1 instead of a traceback; programming
    errors still propagate.
    """
    from .exceptions import ReproError

    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head);
        # not an error from the user's point of view.
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
