"""Command-line reproduction driver: ``python -m repro <experiment>``.

Regenerates any of the paper's tables and figures from the terminal:

    python -m repro table1                     # build statistics
    python -m repro table2 --county charles    # per-query metrics
    python -m repro figure6                    # page/buffer sweep
    python -m repro figure7|figure8|figure9    # normalized ranges
    python -m repro occupancy                  # Concluding Remarks
    python -m repro generate --county cecil    # inspect a synthetic map

``--scale`` is the fraction of the paper's ~50 000 segments per county
(default 0.05); ``--queries`` the number of queries per workload
(default 100; the paper used 1000).

The service layer adds three more subcommands::

    python -m repro snapshot --out county.snap   # build + save an index
    python -m repro serve --snapshot county.snap # JSON-over-TCP server
    python -m repro bench-serve --threads 4      # concurrent load test

The durability layer (:mod:`repro.wal`) adds write-ahead logging::

    python -m repro serve --wal store/           # durable server (creates
                                                 # or recovers the store)
    python -m repro checkpoint --wal store/      # fold the log offline
    python -m repro recover --wal store/         # replay + re-checkpoint

The observability layer (:mod:`repro.obs`) adds tracing and metrics::

    python -m repro serve --trace --slow-ms 5    # trace spans + slow log
    python -m repro stats --port 8765            # live server metrics
    python -m repro stats --format prom          # Prometheus exposition
    python -m repro bench-serve --trace          # traced load test
    python -m repro explain window --x1 0 --y1 0 --x2 500 --y2 500
                                                 # per-level query profile
    python -m repro bench --compare benchmarks/results/BENCH_paper_core.json \\
        out/BENCH_e2e.json                       # paper-scale counter gate
                                                 # (exit 1); the fresh record is
                                                 # benchmarks/e2e/run.py --out's

The sharding layer (:mod:`repro.shard`) splits the map across workers::

    python -m repro shard-init --root shards/ --n-shards 4
                                                 # manifest + one store per shard
    python -m repro shard-worker --root shards/ --shard s1
                                                 # serve one shard (writes shard.addr)
    python -m repro route --root shards/ --port 8765
                                                 # scatter-gather router
    python -m repro shard-split --root shards/ --shard s1
                                                 # split a hot shard (epoch + 1)
    python -m repro shard-catchup --root shards/ --shard s1
                                                 # replay missed mutations from a peer
    python -m repro bench-serve --connect 127.0.0.1:8765
                                                 # drive running server(s), round-robin
    python -m repro bench --routed --json BENCH_shard.json
                                                 # routed perf-baseline record

The async layer (:mod:`repro.aio`) serves the same engine from one
event loop, with the pipelined wire protocol v2::

    python -m repro serve --snapshot county.snap --async
                                                 # asyncio server (v1 + v2)
    python -m repro route --root shards/ --async # asyncio scatter-gather
    python -m repro bench-serve --async --threads 20 --pipeline 8
                                                 # pipelined connections
    python -m repro bench-serve --async --mutate-frac 0.2 --wal store/
                                                 # measures group commit

The static-analysis layer adds two::

    python -m repro check county.snap            # index fsck (snapshot)
    python -m repro check --wal store/           # durable-store fsck
    python -m repro check --shards shards/       # shard-set fsck (SH rules)
    python -m repro check --county cecil --structure PMR   # fsck a build
    python -m repro lint src/                    # project AST lint

Exit codes for both: 0 = clean, 1 = findings (``check``: at least one
*error*-severity finding; warnings alone exit 0), 2 = the target could
not be analysed at all (missing/corrupt snapshot, unknown path).
"""

from __future__ import annotations

import argparse
import sys


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--queries", type=int, default=100)
    parser.add_argument("--county", default="charles")


def _build_or_open(args):
    """An index for the service commands: open a snapshot or build fresh."""
    from repro.service import open_index
    from repro.storage import CodecError

    if getattr(args, "snapshot", None):
        try:
            return open_index(args.snapshot)
        except FileNotFoundError:
            sys.exit(f"error: snapshot not found: {args.snapshot}")
        except CodecError as exc:
            sys.exit(f"error: cannot open {args.snapshot}: {exc}")
    from repro.data import generate_county
    from repro.harness.experiment import build_structure

    built = build_structure(
        args.structure, generate_county(args.county, scale=args.scale)
    )
    return built.index


def _cmd_snapshot(args) -> int:
    from repro.data import generate_county
    from repro.harness.experiment import build_structure
    from repro.service import save_index

    built = build_structure(
        args.structure, generate_county(args.county, scale=args.scale)
    )
    pages = save_index(built.index, args.out)
    print(
        f"saved {args.structure} over {args.county} (scale {args.scale}): "
        f"{pages} pages -> {args.out}"
    )
    return 0


def _open_or_create_store(args):
    """The durable store behind ``--wal DIR``: recover it, or create it
    around a freshly built (or snapshot-loaded) index."""
    from repro.wal import DurableStore, WalError

    try:
        if DurableStore.exists(args.wal):
            store = DurableStore.open(args.wal, group_commit=args.group_commit)
            print(
                f"recovered durable store {args.wal}: checkpoint LSN "
                f"{store.checkpoint_lsn}, last LSN {store.last_lsn}, "
                f"{store.replayed_records} record(s) replayed",
                flush=True,
            )
            return store
        index = _build_or_open(args)
        store = DurableStore.create(
            args.wal, index, group_commit=args.group_commit
        )
        print(f"created durable store {args.wal} at LSN 0", flush=True)
        return store
    except WalError as exc:
        sys.exit(f"error: cannot recover {args.wal}: {exc}")


def _maybe_enable_sanitizer(args) -> bool:
    """Honor ``--sanitize`` (REPRO_SANITIZE=1 enables it at import time)."""
    from repro.sanitize import SANITIZER

    if getattr(args, "sanitize", False):
        SANITIZER.enable()
    return SANITIZER.enabled


def _sanitizer_verdict() -> int:
    """Print the sanitizer report; returns the potential-deadlock count."""
    from repro.sanitize import SANITIZER

    if not SANITIZER.enabled:
        return 0
    report = SANITIZER.report()
    print(SANITIZER.format_report(), flush=True)
    return len(report["potential_deadlocks"])


def _arm_tracing(args) -> None:
    """Apply ``--trace`` / ``--trace-sample`` to the process-wide tracer.

    ``--trace-sample RATE`` arms distributed tail-based sampling (trace
    ids on the wire, head decision at RATE, errored/slow retention);
    plain ``--trace`` keeps the legacy record-everything mode.
    """
    sample = getattr(args, "trace_sample", None)
    if sample is None and not getattr(args, "trace", False):
        return
    from repro.obs import TRACER

    capacity = getattr(args, "trace_capacity", None)
    if sample is not None:
        try:
            TRACER.arm(
                sample,
                slow_ms=getattr(args, "slow_ms", None),
                capacity=capacity,
            )
        except ValueError as exc:
            sys.exit(f"error: {exc}")
    else:
        TRACER.enable(capacity=capacity)


def _cmd_serve(args) -> int:
    from repro.service import MapServer, QueryEngine

    _maybe_enable_sanitizer(args)

    store = None
    if args.wal:
        store = _open_or_create_store(args)
        index = store.index
    else:
        index = _build_or_open(args)
    _arm_tracing(args)
    engine = QueryEngine(
        index,
        cache_capacity=args.cache_size,
        store=store,
        slow_ms=args.slow_ms,
        backend=args.backend,
    )
    idle_timeout = args.idle_timeout if args.idle_timeout > 0 else None
    if args.use_async:
        import asyncio

        from repro.aio import AsyncMapServer

        server = AsyncMapServer(
            engine,
            host=args.host,
            port=args.port,
            idle_timeout=idle_timeout,
            max_inflight_per_conn=args.max_inflight_conn,
            max_inflight_total=args.max_inflight,
            executor_workers=args.executor_workers,
        )

        async def _serve() -> None:
            await server.start()
            host, port = server.address
            print(
                f"serving {index.name} ({len(index.ctx.segments)} segments) "
                f"on {host}:{port} -- asyncio front end: v1 newline JSON "
                f'plus pipelined wire protocol v2 (pin {{"v": 2}})',
                flush=True,
            )
            await server.serve_forever()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            if store is not None:
                store.close()
        return 1 if _sanitizer_verdict() else 0
    server = MapServer(
        engine, host=args.host, port=args.port, idle_timeout=idle_timeout
    )
    host, port = server.address
    print(
        f"serving {index.name} ({len(index.ctx.segments)} segments) "
        f"on {host}:{port} -- newline-delimited JSON, e.g. "
        f'{{"op": "window", "x1": 0, "y1": 0, "x2": 500, "y2": 500}}',
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        if store is not None:
            store.close()
    return 1 if _sanitizer_verdict() else 0


def _cmd_checkpoint(args) -> int:
    from repro.wal import DurableStore, WalError

    try:
        store = DurableStore.open(args.wal, group_commit=args.group_commit)
    except (FileNotFoundError, WalError) as exc:
        sys.exit(f"error: cannot open durable store {args.wal}: {exc}")
    try:
        result = store.checkpoint()
    finally:
        store.close()
    print(
        f"checkpointed {args.wal} at LSN {result['checkpoint_lsn']}: "
        f"{result['folded_records']} record(s) folded into "
        f"{result['pages']} pages"
    )
    return 0


def _cmd_recover(args) -> int:
    from repro.wal import DurableStore, WalError

    try:
        store = DurableStore.open(args.wal, group_commit=args.group_commit)
    except (FileNotFoundError, WalError) as exc:
        sys.exit(f"error: cannot recover {args.wal}: {exc}")
    try:
        print(
            f"recovered {args.wal}: checkpoint LSN {store.checkpoint_lsn}, "
            f"last LSN {store.last_lsn}, {store.replayed_records} record(s) "
            f"replayed, {store.replay_result.skipped_records} skipped"
        )
        result = store.checkpoint()
        print(
            f"re-checkpointed at LSN {result['checkpoint_lsn']} "
            f"({result['folded_records']} record(s) folded); log tail is empty"
        )
    finally:
        store.close()
    return 0


def _cmd_bench_serve(args) -> int:
    from repro.service import bench_serve, format_bench_report
    from repro.storage import CodecError

    _maybe_enable_sanitizer(args)
    connect = None
    if args.connect:
        from repro.service.loadgen import parse_address

        try:
            connect = [parse_address(spec) for spec in args.connect]
        except ValueError as exc:
            sys.exit(f"error: {exc}")
    try:
        report = bench_serve(
            county=args.county,
            scale=args.scale,
            structure=args.structure,
            threads=args.threads,
            requests=args.requests,
            snapshot=args.snapshot,
            cache_capacity=args.cache_size,
            seed=args.seed,
            trace=args.trace,
            slow_ms=args.slow_ms,
            connect=connect,
            use_async=args.use_async,
            pipeline=args.pipeline,
            wal_dir=args.wal,
            mutate_frac=args.mutate_frac,
        )
    except FileNotFoundError:
        sys.exit(f"error: snapshot not found: {args.snapshot}")
    except CodecError as exc:
        sys.exit(f"error: cannot open {args.snapshot}: {exc}")
    print(format_bench_report(report))
    deadlocks = _sanitizer_verdict()
    if report.errors or not report.counters_consistent or deadlocks:
        return 1
    return 0


def _cmd_shard_init(args) -> int:
    from repro.data import generate_county
    from repro.errors import CodecError
    from repro.shard import init_shard_set

    map_data = generate_county(args.county, scale=args.scale)
    try:
        smap = init_shard_set(
            args.root,
            args.structure,
            map_data=map_data,
            n_shards=args.n_shards,
            order=args.order,
            page_size=args.page_size,
            pool_pages=args.pool_pages,
        )
    except (ValueError, CodecError) as exc:
        sys.exit(f"error: cannot initialise shard set: {exc}")
    print(
        f"initialised {len(smap.shards)}-shard {args.structure} set over "
        f"{args.county} (scale {args.scale}) at {args.root} "
        f"(epoch {smap.epoch}, Hilbert order {smap.order})"
    )
    for spec in smap.shards:
        print(f"  {spec.shard_id}: cells [{spec.lo}, {spec.hi})")
    return 0


def _cmd_shard_worker(args) -> int:
    from repro.errors import WalError
    from repro.shard import serve_shard

    _maybe_enable_sanitizer(args)
    _arm_tracing(args)
    try:
        server = serve_shard(
            args.root,
            args.shard,
            host=args.host,
            port=args.port,
            group_commit=args.group_commit,
            slow_ms=args.slow_ms,
            backend=args.backend,
        )
    except (FileNotFoundError, KeyError, WalError) as exc:
        sys.exit(f"error: cannot open shard {args.shard}: {exc}")
    host, port = server.address
    print(
        f"shard {args.shard} of {args.root} serving on {host}:{port} "
        f"(address published to shard.addr)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()
        server.engine.store.close()
    return 1 if _sanitizer_verdict() else 0


def _cmd_route(args) -> int:
    from repro.errors import WalError
    from repro.shard import ShardRouter

    _maybe_enable_sanitizer(args)
    _arm_tracing(args)
    if args.use_async:
        import asyncio

        from repro.aio import AsyncShardRouter

        try:
            router = AsyncShardRouter(
                args.root, host=args.host, port=args.port, timeout=args.timeout
            )
        except (FileNotFoundError, ValueError, WalError) as exc:
            sys.exit(f"error: cannot open shard set {args.root}: {exc}")

        async def _serve() -> None:
            await router.start()
            host, port = router.address
            print(
                f"routing {len(router.clients)} shard(s) of {args.root} on "
                f"{host}:{port} (epoch {router.shard_map.epoch}) -- asyncio "
                f"front end: v1 newline JSON plus pipelined wire protocol v2",
                flush=True,
            )
            await router.serve_forever()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        return 1 if _sanitizer_verdict() else 0
    try:
        router = ShardRouter(
            args.root, host=args.host, port=args.port, timeout=args.timeout
        )
    except (FileNotFoundError, ValueError, WalError) as exc:
        sys.exit(f"error: cannot open shard set {args.root}: {exc}")
    host, port = router.address
    print(
        f"routing {len(router.clients)} shard(s) of {args.root} on "
        f"{host}:{port} (epoch {router.shard_map.epoch}) -- "
        f"newline-delimited JSON, same ops as a single server",
        flush=True,
    )
    try:
        router.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        router.close()
    return 1 if _sanitizer_verdict() else 0


def _cmd_shard_split(args) -> int:
    from repro.errors import WalError
    from repro.shard import split_shard

    try:
        result = split_shard(args.root, args.shard)
    except (FileNotFoundError, KeyError, ValueError, WalError) as exc:
        sys.exit(f"error: cannot split shard {args.shard}: {exc}")
    print(
        f"split {result['parent']} -> "
        f"{', '.join(c['id'] for c in result['children'])} "
        f"(epoch {result['epoch']})"
    )
    for child in result["children"]:
        print(
            f"  {child['id']}: cells [{child['range'][0]}, "
            f"{child['range'][1]}), {child['indexed']} indexed, "
            f"{child['replayed_records']} log record(s) replayed"
        )
    print(
        f"retired store left at {result['retired_store']}; start workers "
        f"for the children and send the router {{\"op\": \"reload\"}}"
    )
    return 0


def _cmd_shard_catchup(args) -> int:
    from repro.errors import WalError
    from repro.shard import catch_up_shard

    try:
        result = catch_up_shard(
            args.root, args.shard, donor=args.donor
        )
    except (FileNotFoundError, KeyError, ValueError, WalError) as exc:
        sys.exit(f"error: cannot catch up shard {args.shard}: {exc}")
    print(
        f"caught up {result['shard']} from {result['donor']}: "
        f"{result['caught_up_records']} record(s) above LSN "
        f"{result['behind_from_lsn']}, {result['indexed']} indexed"
    )
    return 0


def _cmd_stats(args) -> int:
    """Fetch metrics (and optionally traces) from a *running* server."""
    import json

    from repro.service import send_request

    address = (args.host, args.port)
    try:
        if args.format == "prom":
            response = send_request(
                address, {"op": "metrics", "format": "prom", "v": 1}
            )
        elif args.format == "json":
            response = send_request(address, {"op": "metrics", "v": 1})
        else:  # traces
            payload: dict = {"op": "trace", "v": 1}
            if args.trace_id is not None:
                payload["trace_id"] = args.trace_id
            response = send_request(address, payload)
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach server at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 2
    if not response.get("ok"):
        error = response.get("error", {})
        print(
            f"error: server refused: {error.get('code')}: "
            f"{error.get('message')}",
            file=sys.stderr,
        )
        return 1
    if args.format == "prom":
        sys.stdout.write(response["result"])
    elif args.format == "traces":
        print(_render_traces(response["result"]))
    else:
        print(json.dumps(response["result"], indent=2))
    return 0


def _render_traces(result) -> str:
    """Render a trace response (single-node, routed, or by-id) as trees."""
    from repro.obs.trace import format_trace_tree

    records: list = []

    def collect(res) -> None:
        if not isinstance(res, dict):
            return
        if isinstance(res.get("trace"), dict):
            records.append(res["trace"])
        for rec in res.get("traces") or []:
            if isinstance(rec, dict):
                records.append(rec)
        for sub in (res.get("shards") or {}).values():
            collect(sub)

    collect(result)
    if not records:
        return "(no buffered traces)"
    blocks = []
    for rec in records:
        header = ""
        if rec.get("trace_id"):
            bits = [f"trace {rec['trace_id']}"]
            if rec.get("retained"):
                bits.append(f"retained={rec['retained']}")
            header = "  ".join(bits) + "\n"
        blocks.append(header + format_trace_tree(rec))
    return "\n\n".join(blocks)


def _cmd_profile(args) -> int:
    """Sample a running server's (or routed shard set's) thread stacks."""
    from repro.obs.profile import collapsed_text
    from repro.service import send_request

    host, sep, port_text = args.address.rpartition(":")
    if not sep or not port_text.isdigit():
        sys.exit(f"error: address must be host:port, got {args.address!r}")
    address = (host or "127.0.0.1", int(port_text))
    payload = {"op": "profile", "seconds": args.seconds, "hz": args.hz, "v": 1}
    try:
        # A routed profile takes the window on every shard plus its own:
        # allow the window twice over, plus transport slack.
        response = send_request(
            address, payload, timeout=args.seconds * 2 + 15.0
        )
    except (ConnectionError, OSError) as exc:
        print(
            f"error: cannot reach server at {address[0]}:{address[1]}: {exc}",
            file=sys.stderr,
        )
        return 2
    if not response.get("ok"):
        error = response.get("error", {})
        print(
            f"error: server refused: {error.get('code')}: "
            f"{error.get('message')}",
            file=sys.stderr,
        )
        return 1
    profile = response["result"]
    summary = (
        f"{profile['samples']} samples over {profile['seconds']:.1f}s "
        f"at {profile['hz']}Hz ({len(profile['stacks'])} distinct stacks)"
    )
    parts = profile.get("parts")
    if parts:
        summary += f" across {', '.join(parts)}"
    # Keep stdout pure collapsed-stack format (flamegraph.pl input);
    # the human summary goes to stderr.
    print(summary, file=sys.stderr)
    text = collapsed_text(profile)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            if text:
                fh.write(text + "\n")
        print(f"wrote collapsed stacks to {args.out}", file=sys.stderr)
    elif text:
        print(text)
    return 0


def _cmd_explain(args) -> int:
    """Per-level query profile: local build/snapshot or a live server."""
    import json

    from repro.obs import format_explain

    if args.query_op == "point":
        if args.x is None or args.y is None:
            sys.exit("error: explain point requires --x and --y")
        query = {"op": "point", "x": args.x, "y": args.y}
    elif args.query_op == "window":
        if None in (args.x1, args.y1, args.x2, args.y2):
            sys.exit("error: explain window requires --x1 --y1 --x2 --y2")
        query = {
            "op": "window",
            "x1": args.x1,
            "y1": args.y1,
            "x2": args.x2,
            "y2": args.y2,
            "mode": args.mode,
        }
    else:  # nearest
        if args.x is None or args.y is None:
            sys.exit("error: explain nearest requires --x and --y")
        query = {"op": "nearest", "x": args.x, "y": args.y, "k": args.k}

    if args.port is not None:
        from repro.service import send_request

        try:
            response = send_request(
                (args.host, args.port), {"op": "explain", "query": query, "v": 1}
            )
        except (ConnectionError, OSError) as exc:
            print(
                f"error: cannot reach server at {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 2
        if not response.get("ok"):
            error = response.get("error", {})
            print(
                f"error: server refused: {error.get('code')}: "
                f"{error.get('message')}",
                file=sys.stderr,
            )
            return 1
        report = response["result"]
    else:
        from repro.service import QueryEngine
        from repro.service.api import parse_request

        index = _build_or_open(args)
        engine = QueryEngine(index)
        report = engine.execute(parse_request({"op": "explain", "query": query}))
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(format_explain(report))
    return 0


def _cmd_bench(args) -> int:
    """Gate a bench record on a baseline; ``--routed`` runs the fresh one."""
    import json

    from repro.bench import run_shard_bench, write_record
    from repro.bench.compare import (
        EXIT_INCOMPARABLE,
        compare_records,
        load_record,
    )
    from repro.metric_names import PAPER_METRICS

    def load(path):
        try:
            return load_record(path)
        except FileNotFoundError:
            print(f"error: record not found: {path}", file=sys.stderr)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read record {path}: {exc}", file=sys.stderr)
        return None

    if args.routed and args.record is None:
        record = run_shard_bench(
            {
                "county": args.county,
                "scale": args.scale,
                "n_queries": args.queries,
                "seed": args.seed,
                "n_shards": args.n_shards,
            }
        )
        if args.json:
            write_record(record, args.json)
            print(f"wrote {args.json} ({record['git_sha']})")
        for name, entry in record["structures"].items():
            totals = entry["totals"]
            summary = ", ".join(f"{m}={totals[m]}" for m in PAPER_METRICS)
            print(f"  {name}: {summary}")
    elif args.record is not None and args.compare and not args.routed:
        record = load(args.record)
        if record is None:
            return EXIT_INCOMPARABLE
    else:
        print(
            "error: give --routed to run the routed bench, or --compare "
            "BASELINE RECORD to gate the BENCH_e2e.json that "
            "benchmarks/e2e/run.py --out wrote (not both)",
            file=sys.stderr,
        )
        return EXIT_INCOMPARABLE
    if args.compare:
        baseline = load(args.compare)
        if baseline is None:
            return EXIT_INCOMPARABLE
        code, lines = compare_records(baseline, record, tolerance=args.tolerance)
        print("\n".join(lines))
        return code
    return 0


def _cmd_check(args) -> int:
    from repro.analysis import check_index, check_snapshot, format_findings, has_errors
    from repro.analysis.findings import FSCK_RULES
    from repro.storage import CodecError

    if args.rules:
        print(FSCK_RULES.describe())
        return 0
    if getattr(args, "shards", None):
        import os

        from repro.analysis import check_shard_set

        if not os.path.isdir(args.shards):
            print(f"error: no such directory: {args.shards}", file=sys.stderr)
            return 2
        findings = check_shard_set(args.shards)
        print(format_findings(findings, title=f"fsck shard set {args.shards}"))
        return 1 if has_errors(findings) else 0
    if getattr(args, "wal", None):
        from repro.analysis import check_durable

        import os

        if not os.path.isdir(args.wal):
            print(f"error: no such directory: {args.wal}", file=sys.stderr)
            return 2
        findings = check_durable(args.wal)
        print(format_findings(findings, title=f"fsck durable store {args.wal}"))
        return 1 if has_errors(findings) else 0
    if args.snapshot:
        try:
            findings = check_snapshot(args.snapshot)
        except FileNotFoundError:
            print(f"error: snapshot not found: {args.snapshot}", file=sys.stderr)
            return 2
        except CodecError as exc:
            print(f"error: cannot read {args.snapshot}: {exc}", file=sys.stderr)
            return 2
        title = f"fsck {args.snapshot}"
    else:
        from repro.data import generate_county
        from repro.harness.experiment import build_structure

        built = build_structure(
            args.structure, generate_county(args.county, scale=args.scale)
        )
        findings = check_index(built.index)
        title = f"fsck {args.structure} over {args.county} (scale {args.scale})"
    print(format_findings(findings, title=title))
    return 1 if has_errors(findings) else 0


def _cmd_lint(args) -> int:
    from repro.analysis import format_findings, lint_paths
    from repro.analysis.findings import LINT_RULES
    from repro.analysis.lint import iter_python_files

    if args.rules:
        print(LINT_RULES.describe())
        return 0
    import os

    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    if not iter_python_files(args.paths):
        print(f"error: no python files under {args.paths}", file=sys.stderr)
        return 2
    if args.concurrency:
        from repro.analysis import lint_concurrency_paths

        findings = lint_concurrency_paths(args.paths)
        title = f"concurrency lint {' '.join(args.paths)}"
    else:
        findings = lint_paths(args.paths)
        title = f"lint {' '.join(args.paths)}"
    print(format_findings(findings, title=title))
    return 1 if findings else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of Hoel & Samet, SIGMOD 1992.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (
        "table1",
        "table2",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "occupancy",
        "generate",
        "report",
    ):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "report":
            p.add_argument("--out", default=None, help="write markdown here")

    p = sub.add_parser("snapshot", help="build an index and save it to disk")
    _add_common(p)
    p.add_argument("--structure", default="R*", choices=["R*", "R+", "PMR", "R"])
    p.add_argument("--out", required=True, help="snapshot file to write")

    p = sub.add_parser("serve", help="serve an index over JSON-over-TCP")
    _add_common(p)
    p.add_argument("--structure", default="R*", choices=["R*", "R+", "PMR", "R"])
    p.add_argument("--snapshot", default=None, help="open this snapshot instead of building")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument(
        "--wal",
        default=None,
        help="durable-store directory: create it (or recover it) and "
        "write-ahead log every mutation",
    )
    p.add_argument(
        "--group-commit",
        type=int,
        default=1,
        help="fsync once per N logged records (1 = every commit)",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="capture per-query trace spans (read back via 'op': 'trace')",
    )
    p.add_argument(
        "--trace-capacity",
        type=int,
        default=64,
        help="finished traces kept in the ring buffer",
    )
    p.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="arm distributed tail-based trace sampling at this head "
        "rate in [0, 1]; errored (and, with --slow-ms, slow) requests "
        "are retained regardless",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log queries slower than this many milliseconds",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime lock-order sanitizer (report on exit; "
        "exit 1 on a potential deadlock)",
    )
    p.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve from one asyncio event loop instead of a thread per "
        "connection; adds the pipelined wire protocol v2",
    )
    p.add_argument(
        "--backend",
        default="scalar",
        choices=["scalar", "vector"],
        help="traversal backend for query execution ('vector' falls "
        "back to scalar when numpy is unavailable; see stats())",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="close a connection idle for this many seconds (0 = never)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=1024,
        help="global in-flight request cap before server_overloaded "
        "(--async only)",
    )
    p.add_argument(
        "--max-inflight-conn",
        type=int,
        default=64,
        help="per-connection in-flight cap before server_overloaded "
        "(--async only)",
    )
    p.add_argument(
        "--executor-workers",
        type=int,
        default=4,
        help="threads for long and blocking requests (mutations, batch, "
        "stats, check, big scans, routed scatter); short reads run on the "
        "event loop thread itself (--async only)",
    )

    for name, helptext in (
        ("checkpoint", "fold a durable store's log into a fresh snapshot"),
        ("recover", "replay a durable store's log and re-checkpoint it"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--wal", required=True, help="durable-store directory")
        p.add_argument("--group-commit", type=int, default=1)

    p = sub.add_parser("bench-serve", help="drive a server with K connections")
    _add_common(p)
    p.add_argument("--structure", default="R*", choices=["R*", "R+", "PMR", "R"])
    p.add_argument("--snapshot", default=None, help="open this snapshot instead of building")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--trace",
        action="store_true",
        help="enable tracing for the run (reported, and stresses the "
        "instrumented path)",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="arm the slow-query log at this threshold",
    )
    p.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="drive running server(s) instead of building locally; repeat "
        "the flag to round-robin client threads across addresses (e.g. a "
        "shard router plus direct workers)",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run the bench under the lock-order sanitizer (exit 1 on a "
        "potential deadlock)",
    )
    p.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="start the in-process AsyncMapServer instead of the threaded "
        "server (the wire is negotiated per connection; no effect with "
        "--connect)",
    )
    p.add_argument(
        "--pipeline",
        type=int,
        default=8,
        help="requests kept in flight per connection on servers that "
        "accept the v2 upgrade",
    )
    p.add_argument(
        "--mutate-frac",
        type=float,
        default=0.0,
        help="share of requests that are inserts (pair with --wal to "
        "measure group commit)",
    )
    p.add_argument(
        "--wal",
        default=None,
        help="serve durably from this directory for the bench (enables "
        "the group-commit measurement)",
    )

    p = sub.add_parser(
        "shard-init",
        help="create a shard set: manifest + one durable store per shard",
    )
    _add_common(p)
    p.add_argument("--structure", default="R*", choices=["R*", "R+", "PMR", "R"])
    p.add_argument("--root", required=True, help="shard-set directory")
    p.add_argument("--n-shards", type=int, default=4)
    p.add_argument(
        "--order",
        type=int,
        default=None,
        help="Hilbert curve order (default: sized from the segment count)",
    )
    p.add_argument("--page-size", type=int, default=1024)
    p.add_argument("--pool-pages", type=int, default=16)

    p = sub.add_parser(
        "shard-worker", help="serve one shard of a set (publishes shard.addr)"
    )
    p.add_argument("--root", required=True, help="shard-set directory")
    p.add_argument("--shard", required=True, help="shard id from the manifest")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 = ephemeral")
    p.add_argument("--group-commit", type=int, default=1)
    p.add_argument("--slow-ms", type=float, default=None)
    p.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="arm distributed tail-based trace sampling at this head rate",
    )
    p.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        help="finished traces kept in the ring buffer",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime lock-order sanitizer for this worker",
    )
    p.add_argument(
        "--backend",
        default="scalar",
        choices=["scalar", "vector"],
        help="traversal backend for this worker's query execution",
    )

    p = sub.add_parser(
        "route", help="scatter-gather router over a shard set's workers"
    )
    p.add_argument("--root", required=True, help="shard-set directory")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        help="per-shard request timeout in seconds",
    )
    p.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="arm distributed tail-based trace sampling at this head "
        "rate; sampled requests return a stitched cross-shard trace tree",
    )
    p.add_argument(
        "--trace-capacity",
        type=int,
        default=None,
        help="finished traces kept in the router's ring buffer",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="tail-retain traces at least this slow even when unsampled",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime lock-order sanitizer for the router",
    )
    p.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve the router from one asyncio event loop; adds the "
        "pipelined wire protocol v2 in front of the shard set",
    )

    p = sub.add_parser(
        "shard-split",
        help="split a hot shard into two children (stop its worker first)",
    )
    p.add_argument("--root", required=True, help="shard-set directory")
    p.add_argument("--shard", required=True, help="shard id to split")

    p = sub.add_parser(
        "shard-catchup",
        help="replay a lagging shard's missed mutations from a peer's WAL",
    )
    p.add_argument("--root", required=True, help="shard-set directory")
    p.add_argument("--shard", required=True, help="lagging shard id")
    p.add_argument(
        "--donor",
        default=None,
        help="peer to copy from (default: the peer with the highest LSN)",
    )

    p = sub.add_parser(
        "stats", help="fetch metrics/traces from a running server"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument(
        "--format",
        default="json",
        choices=["json", "prom", "traces"],
        help="json = metrics registry, prom = Prometheus text exposition, "
        "traces = recent trace trees, rendered",
    )
    p.add_argument(
        "--trace-id",
        default=None,
        help="with --format traces: fetch one trace by id (the 'tc.t' a "
        "sampled response carried); against a router this returns the "
        "stitched cross-shard tree",
    )

    p = sub.add_parser(
        "profile",
        help="sampling-profile a running server or router (collapsed "
        "flamegraph stacks on stdout)",
    )
    p.add_argument("address", help="host:port of a running server/router")
    p.add_argument(
        "--seconds", type=float, default=1.0, help="sampling window"
    )
    p.add_argument("--hz", type=int, default=97, help="sampling frequency")
    p.add_argument(
        "-o",
        "--out",
        default=None,
        help="write collapsed stacks to this file instead of stdout",
    )

    p = sub.add_parser(
        "explain", help="per-level query profile (EXPLAIN) for one read query"
    )
    _add_common(p)
    p.add_argument("query_op", choices=["point", "window", "nearest"])
    p.add_argument("--structure", default="R*", choices=["R*", "R+", "PMR", "R"])
    p.add_argument("--snapshot", default=None, help="open this snapshot instead of building")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--x1", type=float, default=None)
    p.add_argument("--y1", type=float, default=None)
    p.add_argument("--x2", type=float, default=None)
    p.add_argument("--y2", type=float, default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", default="intersects", choices=["intersects", "contains"])
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port",
        type=int,
        default=None,
        help="send the explain to a running server instead of building locally",
    )
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="text = rendered plan, json = the raw report object",
    )

    p = sub.add_parser(
        "bench",
        help="gate a BENCH_*.json record on a committed baseline",
    )
    p.add_argument(
        "record",
        nargs="?",
        default=None,
        help="the fresh record to gate with --compare: the BENCH_e2e.json "
        "that `benchmarks/e2e/run.py --workload paper_core --trace --out "
        "DIR` wrote (its count-unit per-layer metrics gate at tolerance 0)",
    )
    p.add_argument(
        "--compare",
        default=None,
        help="baseline BENCH_*.json to gate against (exit 1 on regression, "
        "2 if the records are not comparable)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative headroom for the routed record's counters "
        "(default 10%%)",
    )
    p.add_argument(
        "--routed",
        action="store_true",
        help="run the fresh record instead of reading one: five workloads "
        "through a sharded service (one shard set per structure); emits a "
        "repro-shard-bench record. The options below are its params",
    )
    p.add_argument("--county", default="cecil")
    p.add_argument("--scale", type=float, default=0.02)
    p.add_argument("--queries", type=int, default=25)
    p.add_argument("--seed", type=int, default=1992)
    p.add_argument("--n-shards", type=int, default=4)
    p.add_argument("--json", default=None, help="write the routed record here")

    p = sub.add_parser("check", help="static index fsck (no queries executed)")
    _add_common(p)
    p.add_argument(
        "snapshot",
        nargs="?",
        default=None,
        help="snapshot file to check; omit to build --structure fresh",
    )
    p.add_argument("--structure", default="R*", choices=["R*", "R+", "PMR", "R"])
    p.add_argument("--rules", action="store_true", help="list fsck rules and exit")
    p.add_argument(
        "--wal",
        default=None,
        help="fsck a durable-store directory (rules FS07..FS10 plus the "
        "full checkpoint-snapshot walk)",
    )
    p.add_argument(
        "--shards",
        default=None,
        help="fsck a shard-set directory (rules SH01..SH05 plus the "
        "durable-store walk on every member)",
    )

    p = sub.add_parser("lint", help="project AST lint (RP measurement rules, CC concurrency rules)")
    p.add_argument("paths", nargs="*", default=["src/"], help="files or directories")
    p.add_argument("--rules", action="store_true", help="list lint rules and exit")
    p.add_argument(
        "--concurrency",
        action="store_true",
        help="run the lock-discipline pass (CC01..CC05) instead of the RP rules",
    )

    args = parser.parse_args(argv)

    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "bench-serve":
        return _cmd_bench_serve(args)
    if args.command == "shard-init":
        return _cmd_shard_init(args)
    if args.command == "shard-worker":
        return _cmd_shard_worker(args)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "shard-split":
        return _cmd_shard_split(args)
    if args.command == "shard-catchup":
        return _cmd_shard_catchup(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "lint":
        return _cmd_lint(args)

    # Imports deferred so `--help` stays instant.
    from repro.data import generate_county
    from repro.harness import (
        figure6_sweep,
        format_figure6,
        format_normalized,
        format_occupancy,
        format_table1,
        format_table2,
        normalized_ranges,
        occupancy_report,
        table1,
    )
    from repro.harness.normalized import collect_all_counties
    from repro.harness.query_stats import county_query_stats
    from repro.metric_names import BBOX_COMPS, DISK_ACCESSES, SEGMENT_COMPS

    if args.command == "table1":
        print(format_table1(table1(scale=args.scale)))
    elif args.command == "table2":
        stats = county_query_stats(
            args.county, scale=args.scale, n_queries=args.queries
        )
        print(format_table2(stats, county=args.county))
    elif args.command == "figure6":
        cells = figure6_sweep(county=args.county, scale=args.scale)
        print(format_figure6(cells))
    elif args.command in ("figure7", "figure8", "figure9"):
        per_county = collect_all_counties(scale=args.scale, n_queries=args.queries)
        if args.command == "figure7":
            ranges = normalized_ranges(
                per_county, BBOX_COMPS, structures=("R+",), baseline="R*"
            )
            print(
                format_normalized(
                    ranges, "Figure 7: relative bounding box computations",
                    baseline="R*",
                )
            )
        elif args.command == "figure8":
            ranges = normalized_ranges(per_county, DISK_ACCESSES)
            print(format_normalized(ranges, "Figure 8: relative disk accesses"))
        else:
            ranges = normalized_ranges(per_county, SEGMENT_COMPS)
            print(
                format_normalized(ranges, "Figure 9: relative segment comparisons")
            )
    elif args.command == "occupancy":
        print(format_occupancy(occupancy_report(county=args.county, scale=args.scale)))
    elif args.command == "generate":
        from repro.data.stats import map_statistics

        m = generate_county(args.county, scale=args.scale)
        print(map_statistics(m))
    elif args.command == "report":
        from repro.harness.report import full_report

        text = full_report(
            scale=args.scale, n_queries=args.queries, out_path=args.out
        )
        if args.out:
            print(f"report written to {args.out}")
        else:
            print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
