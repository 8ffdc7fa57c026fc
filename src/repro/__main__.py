"""Command-line driver: ``python -m repro <command> [options]``.

``python -m repro --help`` lists the commands -- ``report`` (every table
and figure of the paper) and ``generate`` (one synthetic map), the
snapshot/durable-store/shard-set tools, the three servers
(``serve``, ``shard-worker``, ``route``), the clients of a running
server (``stats``, ``profile``, ``explain --port``) and the checkers
(``check``, ``lint``, ``bench``) -- and ``python -m repro <command>
--help`` the options of one.

Exit codes: 0 = done / clean; 1 = findings (``check``: at least one
*error*-severity finding, warnings alone exit 0), a counter regression,
a request the server refused, or a potential deadlock under
``--sanitize``; 2 = the target could not be analysed or reached at all
(bad usage, missing/corrupt snapshot, unknown path, no server there).
"""

from __future__ import annotations

import argparse
import sys


def _build(args):
    """``--structure`` built fresh over ``--county`` at ``--scale``."""
    from repro.data import generate_county
    from repro.harness.experiment import build_structure

    map_data = generate_county(args.county, scale=args.scale)
    return build_structure(args.structure, map_data).index


def _build_or_open(args):
    """An index for the service commands: open a snapshot or build fresh."""
    from repro.service import open_index
    from repro.storage import CodecError

    if not args.snapshot:
        return _build(args)
    try:
        return open_index(args.snapshot)
    except FileNotFoundError:
        sys.exit(f"error: snapshot not found: {args.snapshot}")
    except CodecError as exc:
        sys.exit(f"error: cannot open {args.snapshot}: {exc}")


def _open_or_create_store(args):
    """The durable store behind ``--wal DIR``: recover it, or create it
    around a freshly built (or snapshot-loaded) index."""
    from repro.errors import CodecError
    from repro.wal import DurableStore, WalError

    try:
        if DurableStore.exists(args.wal):
            store = DurableStore.open(args.wal)
            print(
                f"recovered durable store {args.wal}: checkpoint LSN "
                f"{store.checkpoint_lsn}, last LSN {store.last_lsn}, "
                f"{store.replayed_records} record(s) replayed",
                flush=True,
            )
            return store
        store = DurableStore.create(args.wal, _build_or_open(args))
        print(f"created durable store {args.wal} at LSN 0", flush=True)
        return store
    except (WalError, CodecError) as exc:  # a store or snapshot rule refused it
        sys.exit(f"error: cannot recover {args.wal}: {exc}")


def _open_store(args, doing: str):
    """``--wal DIR`` as it stands on disk, for the offline commands."""
    from repro.errors import CodecError
    from repro.wal import DurableStore, WalError

    try:
        return DurableStore.open(args.wal)
    except (WalError, CodecError) as exc:
        sys.exit(f"error: cannot {doing} {args.wal}: {exc}")


# ----------------------------------------------------------------------
# Servers: telemetry in, serve until interrupted, verdict out
# ----------------------------------------------------------------------
def _arm_sanitizer(args) -> None:
    """Honor ``--sanitize`` (REPRO_SANITIZE=1 enables it at import time).
    Before any engine is built: a lock is tracked only if the sanitizer
    was on when it was made."""
    from repro.sanitize import SANITIZER

    if args.sanitize:
        SANITIZER.enable()


def _arm_tracing(args) -> None:
    """Apply ``--trace-sample`` / ``--slow-ms`` to the process-wide tracer.

    Either arms it: ``--trace-sample RATE`` is the head decision (trace
    ids on the wire, full detail for that share of requests), ``--slow-ms
    T`` the tail threshold (alone: rate 0, so only errored and slow
    requests are retained). ``--trace-capacity`` sizes the ring they are
    retained in, so with neither it is a usage error.
    """
    if args.trace_sample is None and args.slow_ms is None:
        if args.trace_capacity is not None:
            print(
                "error: --trace-capacity sizes the ring of retained traces; "
                "give --trace-sample and/or --slow-ms to retain any",
                file=sys.stderr,
            )
            sys.exit(2)
        return
    from repro.obs import TRACER

    try:
        TRACER.arm(
            args.trace_sample or 0.0,
            slow_ms=args.slow_ms,
            capacity=args.trace_capacity,
        )
    except ValueError as exc:
        sys.exit(f"error: {exc}")


def _serve(server, what: str, how: str, *closers) -> int:
    """Print the banner, serve until interrupted, close, and give the
    sanitizer's verdict as the exit code.

    ``server`` is a threaded transport (bound when constructed) or an
    asyncio one (bound by ``start()``). Harnesses read the listening
    address from the banner's `` on HOST:PORT``.
    """
    import inspect

    from repro.sanitize import SANITIZER

    def banner() -> None:
        host, port = server.address
        print(f"{what} on {host}:{port} {how}", flush=True)

    async def serve_async() -> None:
        await server.start()
        banner()
        await server.serve_forever()

    try:
        if inspect.iscoroutinefunction(server.serve_forever):
            import asyncio  # only here: a threaded server never loads it

            asyncio.run(serve_async())
        else:
            banner()
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        for close in closers:
            close()
    if not SANITIZER.enabled:
        return 0
    print(SANITIZER.format_report(), flush=True)
    return 1 if SANITIZER.report()["potential_deadlocks"] else 0


def _cmd_serve(args) -> int:
    from repro.service import MapServer, QueryEngine

    _arm_sanitizer(args)
    _arm_tracing(args)
    store = _open_or_create_store(args) if args.wal else None
    index = store.index if store is not None else _build_or_open(args)
    engine = QueryEngine(index, cache_capacity=args.cache_size, store=store)
    what = f"serving {index.name} ({len(index.ctx.segments)} segments)"
    closers = [store.close] if store is not None else []
    idle = args.idle_timeout if args.idle_timeout > 0 else None
    if args.use_async:
        from repro.aio import AsyncMapServer

        server = AsyncMapServer(
            engine, host=args.host, port=args.port, idle_timeout=idle
        )
        how = (
            "-- asyncio front end: v1 newline JSON plus pipelined wire "
            'protocol v2 (pin {"v": 2})'
        )
        return _serve(server, what, how, *closers)
    server = MapServer(engine, host=args.host, port=args.port, idle_timeout=idle)
    how = (
        "-- newline-delimited JSON, e.g. "
        '{"op": "window", "x1": 0, "y1": 0, "x2": 500, "y2": 500}'
    )
    return _serve(server, what, how, server.server_close, *closers)


def _cmd_shard_worker(args) -> int:
    from repro.shard import serve_shard

    _arm_sanitizer(args)
    _arm_tracing(args)
    try:
        server = serve_shard(args.root, args.shard, host=args.host, port=args.port)
    except (KeyError, ValueError) as exc:  # unknown shard; SH / FS rule refusal
        sys.exit(f"error: cannot open shard {args.shard}: {exc}")
    return _serve(
        server,
        f"shard {args.shard} of {args.root} serving",
        "(address published to shard.addr)",
        server.server_close,
        server.engine.store.close,
    )


def _cmd_route(args) -> int:
    from repro.errors import WalError
    from repro.shard import ShardRouter

    _arm_sanitizer(args)
    _arm_tracing(args)
    try:
        router = ShardRouter(
            args.root, host=args.host, port=args.port, timeout=args.timeout
        )
    except (FileNotFoundError, ValueError, WalError) as exc:
        sys.exit(f"error: cannot open shard set {args.root}: {exc}")
    what = f"routing {len(router.core.clients)} shard(s) of {args.root}"
    how = (
        f"(epoch {router.core.shard_map.epoch}) -- asyncio front end: v1 "
        "newline JSON plus pipelined wire protocol v2"
    )
    # The listener goes with the loop; the shard clients with the process.
    return _serve(router, what, how)


#: How `snapshot` and `checkpoint` print :func:`snapshot_sizes`.
_SIZES = (
    "  header {header_bytes} bytes + page area {page_area_bytes} bytes: "
    "{bytes_per_segment} bytes/segment"
)


def _cmd_snapshot(args) -> int:
    from repro.service.snapshot import save_index, snapshot_sizes
    from repro.storage import CodecError

    index = _build(args)
    try:
        pages = save_index(index, args.out)
    except (CodecError, OSError) as exc:
        print(f"error: cannot save {args.structure} snapshot: {exc}", file=sys.stderr)
        return 1
    print(
        f"saved {args.structure} over {args.county} (scale {args.scale}): "
        f"{pages} pages -> {args.out}"
    )
    print(_SIZES.format(**snapshot_sizes(args.out, len(index.ctx.segments))))
    return 0


def _cmd_checkpoint(args) -> int:
    store = _open_store(args, "open durable store")
    try:
        result = store.checkpoint()
    finally:
        store.close()
    print(
        f"checkpointed {args.wal} at LSN {result['checkpoint_lsn']}: "
        f"{result['folded_records']} record(s) folded into "
        f"{result['pages']} pages"
    )
    print(_SIZES.format(**result))
    return 0


def _cmd_recover(args) -> int:
    store = _open_store(args, "recover")
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
        result = catch_up_shard(args.root, args.shard, donor=args.donor)
    except (FileNotFoundError, KeyError, ValueError, WalError) as exc:
        sys.exit(f"error: cannot catch up shard {args.shard}: {exc}")
    print(
        f"caught up {result['shard']} from {result['donor']}: "
        f"{result['caught_up_records']} record(s) above LSN "
        f"{result['behind_from_lsn']}, {result['indexed']} indexed"
    )
    return 0


# ----------------------------------------------------------------------
# Clients of a running server
# ----------------------------------------------------------------------
def _ask(address, payload: dict, timeout: float = 10.0):
    """The result of one request to a *running* server. Says why on
    stderr and exits 2 when no server answers at ``address``, 1 when the
    server answers ``ok: false``."""
    from repro.service import send_request

    try:
        response = send_request(address, {**payload, "v": 1}, timeout=timeout)
    except (OSError, ValueError) as exc:
        print(
            f"error: cannot reach server at {address[0]}:{address[1]}: {exc}",
            file=sys.stderr,
        )
        raise SystemExit(2) from None
    if not response.get("ok"):
        error = response.get("error", {})
        print(
            f"error: server refused: {error.get('code')}: {error.get('message')}",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return response["result"]


def _cmd_stats(args) -> int:
    """Fetch metrics (and optionally traces) from a running server."""
    import json

    if args.format == "traces":
        payload: dict = {"op": "trace"}
        if args.trace_id is not None:
            payload["trace_id"] = args.trace_id
    else:
        payload = {"op": "metrics", "format": args.format}
    result = _ask((args.host, args.port), payload)
    if args.format == "prom":
        sys.stdout.write(result)
    elif args.format == "traces":
        print(_render_traces(result))
    else:
        print(json.dumps(result, indent=2))
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
        header = f"trace {rec.get('trace_id')}"
        if rec.get("retained"):
            header += f"  retained={rec['retained']}"
        blocks.append(f"{header}\n{format_trace_tree(rec)}")
    return "\n\n".join(blocks)


def _cmd_profile(args) -> int:
    """Sample a running server's (or routed shard set's) thread stacks."""
    from repro.obs.profile import collapsed_text

    # A routed profile takes the window on every shard plus its own:
    # allow the window twice over, plus transport slack.
    profile = _ask(
        (args.host, args.port),
        {"op": "profile", "seconds": args.seconds, "hz": args.hz},
        timeout=args.seconds * 2 + 15.0,
    )
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

    needs = ["x1", "y1", "x2", "y2"] if args.query_op == "window" else ["x", "y"]
    if any(getattr(args, name) is None for name in needs):
        flags = " ".join(f"--{name}" for name in needs)
        sys.exit(f"error: explain {args.query_op} requires {flags}")
    query = {"op": args.query_op, **{name: getattr(args, name) for name in needs}}
    if args.query_op == "window":
        query["mode"] = args.mode
    elif args.query_op == "nearest":
        query["k"] = args.k

    if args.port is not None:
        report = _ask((args.host, args.port), {"op": "explain", "query": query})
    else:
        from repro.service import QueryEngine
        from repro.service.api import parse_request

        engine = QueryEngine(_build_or_open(args))
        report = engine.execute(parse_request({"op": "explain", "query": query}))
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(format_explain(report))
    return 0


def _cmd_bench(args) -> int:
    """Gate a bench record on a baseline; the exit code is the verdict."""
    import json

    from repro.bench.compare import EXIT_INCOMPARABLE, compare_records, load_record

    records = []
    for path in (args.compare, args.record):
        try:
            records.append(load_record(path))
        except FileNotFoundError:
            print(f"error: record not found: {path}", file=sys.stderr)
            return EXIT_INCOMPARABLE
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read record {path}: {exc}", file=sys.stderr)
            return EXIT_INCOMPARABLE
    code, lines = compare_records(*records)
    print("\n".join(lines))
    return code


def _cmd_check(args) -> int:
    import os

    # Importing every checker registers every fsck rule, for --rules too.
    from repro.analysis import (
        FSCK_RULES,
        check_durable,
        check_index,
        check_shard_set,
        check_snapshot,
        format_findings,
        has_errors,
    )
    from repro.storage import CodecError

    if args.rules:
        print(FSCK_RULES.describe())
        return 0
    for what, root, check_dir in (
        ("shard set", args.shards, check_shard_set),
        ("durable store", args.wal, check_durable),
    ):
        if root:
            if not os.path.isdir(root):
                print(f"error: no such directory: {root}", file=sys.stderr)
                return 2
            findings = check_dir(root)
            print(format_findings(findings, title=f"fsck {what} {root}"))
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
        findings = check_index(_build(args))
        title = f"fsck {args.structure} over {args.county} (scale {args.scale})"
    print(format_findings(findings, title=title))
    return 1 if has_errors(findings) else 0


def _cmd_lint(args) -> int:
    import os

    from repro.analysis import format_findings, lint_concurrency_paths, lint_paths
    from repro.analysis.findings import LINT_RULES
    from repro.analysis.lint import iter_python_files

    if args.rules:
        print(LINT_RULES.describe())
        return 0
    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2
    if not iter_python_files(args.paths):
        print(f"error: no python files under {args.paths}", file=sys.stderr)
        return 2
    # Both passes report a file that does not parse, and an unjustified
    # pragma, as the same RP00 finding: list each once.
    findings = list(
        dict.fromkeys(lint_paths(args.paths) + lint_concurrency_paths(args.paths))
    )
    print(format_findings(findings, title=f"lint {' '.join(args.paths)}"))
    return 1 if findings else 0


def _cmd_generate(args) -> int:
    from repro.data import generate_county
    from repro.data.stats import map_statistics

    print(map_statistics(generate_county(args.county, scale=args.scale)))
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.harness.report import full_report

    text = full_report(scale=args.scale, n_queries=args.queries, out_path=args.out)
    if args.out:
        record = Path(args.out).with_suffix(".json")
        print(f"report written to {args.out}, its record to {record}")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------
# The parser: each option group is declared once, each command bound once
# ----------------------------------------------------------------------
def _parent() -> argparse.ArgumentParser:
    """A group of options several commands share (an argparse *parent*)."""
    return argparse.ArgumentParser(add_help=False)


def _scale(text: str) -> float:
    """``--scale``: a fraction of the paper's map, in (0, 1]."""
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _address(port, port_help=None) -> argparse.ArgumentParser:
    """``--host``/``--port``: where a server listens or a client asks
    (the one shared group whose default differs by command)."""
    group = _parent()
    group.add_argument("--host", default="127.0.0.1")
    group.add_argument("--port", type=int, default=port, help=port_help)
    return group


def build_parser() -> argparse.ArgumentParser:
    from repro.core import STRUCTURES
    from repro.data import COUNTY_NAMES

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures of Hoel & Samet, SIGMOD 1992, "
        "and serve, shard, observe and check the indexes they compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, parents=(), **kwargs):
        p = sub.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=func)
        return p

    scale, county, queries, structure = _parent(), _parent(), _parent(), _parent()
    scale.add_argument(
        "--scale",
        type=_scale,
        default=0.05,
        help="fraction of the paper's ~50 000 segments per county",
    )
    county.add_argument("--county", default="charles", choices=COUNTY_NAMES)
    queries.add_argument(
        "--queries",
        type=_at_least_one,
        default=100,
        help="queries per workload (the paper used 1000)",
    )
    structure.add_argument("--structure", default="R*", choices=list(STRUCTURES))
    # Index source: what to build, or the snapshot to open instead.
    built = [scale, county, structure]
    opened = _parent()
    opened.add_argument("--snapshot", help="open this snapshot instead of building")
    root, shard = _parent(), _parent()
    root.add_argument("--root", required=True, help="shard-set directory")
    shard.add_argument("--shard", required=True, help="shard id from the manifest")
    # `serve` and `shard-worker` still accept --group-commit 1, as the
    # benchmark's command lines pass it; nothing reads it.
    commit = _parent()
    commit.add_argument(
        "--group-commit",
        type=int,
        choices=(1,),
        default=1,
        help="accepted only because the benchmark's command lines pass it; "
        "1 is its only value, as every front acks a mutation only after an "
        "fsync covers it (concurrent commits share fsyncs)",
    )
    telemetry = _parent()
    telemetry.add_argument(
        "--trace-sample",
        type=float,
        metavar="RATE",
        help="arm tracing at this head-sampling rate in [0, 1] (1 = a "
        "full span tree for every request, read back via 'op': 'trace'); "
        "errored (and, with --slow-ms, slow) requests are retained "
        "regardless; a router returns the stitched cross-shard tree",
    )
    telemetry.add_argument(
        "--trace-capacity",
        type=int,
        help="finished traces kept in the ring buffer (default 64); "
        "needs --trace-sample or --slow-ms",
    )
    telemetry.add_argument(
        "--slow-ms",
        type=float,
        help="retain the trace of every request slower than this many "
        "milliseconds and list it in stats.obs.slow_queries; alone, arms "
        "tracing at rate 0",
    )
    telemetry.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime lock-order sanitizer (report on exit; "
        "exit 1 on a potential deadlock)",
    )
    use_async = _parent()
    use_async.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="serve from one asyncio event loop instead of a thread per "
        "connection; adds the pipelined wire protocol v2",
    )

    command("generate", _cmd_generate, [scale, county], help="inspect a synthetic map")
    p = command("report", _cmd_report, [scale, queries], help="every table and figure")
    p.add_argument(
        "--out", help="write the markdown here and the JSON record beside it"
    )

    p = command(
        "snapshot", _cmd_snapshot, built, help="build an index and save it to disk"
    )
    p.add_argument("--out", required=True, help="snapshot file to write")

    p = command(
        "serve",
        _cmd_serve,
        [*built, opened, _address(8765), commit, telemetry, use_async],
        help="serve an index over JSON-over-TCP",
    )
    p.add_argument("--cache-size", type=int, default=256)
    p.add_argument(
        "--wal",
        help="durable-store directory: create it (or recover it) and "
        "write-ahead log every mutation",
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        help="close a connection idle for this many seconds (0 = never)",
    )

    p = command(
        "checkpoint",
        _cmd_checkpoint,
        help="fold a durable store's log into a fresh snapshot",
    )
    p.add_argument("--wal", required=True, help="durable-store directory")
    p = command(
        "recover",
        _cmd_recover,
        help="replay a durable store's log and re-checkpoint it",
    )
    p.add_argument("--wal", required=True, help="durable-store directory")

    p = command(
        "shard-init",
        _cmd_shard_init,
        [*built, root],
        help="create a shard set: manifest + one durable store per shard",
    )
    p.add_argument("--n-shards", type=int, default=4)
    p.add_argument(
        "--order",
        type=int,
        help="Hilbert curve order (default: sized from the segment count)",
    )
    p.add_argument("--page-size", type=int, default=1024)
    p.add_argument(
        "--pool-pages",
        type=int,
        default=16,
        help="buffer-pool pages for the build only (it moves no stored "
        "byte but the snapshot header's I/O tallies); every worker opens "
        "its shard with a 16-page pool",
    )

    command(
        "shard-worker",
        _cmd_shard_worker,
        [root, shard, _address(0, "0 = ephemeral"), commit, telemetry],
        help="serve one shard of a set (publishes shard.addr)",
    )

    p = command(
        "route",
        _cmd_route,
        [root, _address(8765), telemetry],
        help="scatter-gather router over a shard set's workers",
    )
    p.add_argument(
        "--timeout", type=float, default=5.0, help="per-shard request timeout, seconds"
    )
    p.add_argument(
        "--async",
        dest="use_async",
        action="store_true",
        help="accepted and ignored: the router always serves from one "
        "asyncio event loop (v1 lines and pipelined wire protocol v2)",
    )

    command(
        "shard-split",
        _cmd_shard_split,
        [root, shard],
        help="split a hot shard into two children (stop its worker first)",
    )
    p = command(
        "shard-catchup",
        _cmd_shard_catchup,
        [root, shard],
        help="replay a lagging shard's missed mutations from a peer's WAL",
    )
    p.add_argument(
        "--donor", help="peer to copy from (default: the peer with the highest LSN)"
    )

    p = command(
        "stats",
        _cmd_stats,
        [_address(8765)],
        help="fetch metrics/traces from a running server",
    )
    p.add_argument(
        "--format",
        default="json",
        choices=["json", "prom", "traces"],
        help="json = metrics registry, prom = Prometheus text exposition, "
        "traces = recent trace trees, rendered",
    )
    p.add_argument(
        "--trace-id",
        help="with --format traces: fetch one trace by id (the 'tc.t' a "
        "sampled response carried); against a router this returns the "
        "stitched cross-shard tree",
    )

    p = command(
        "profile",
        _cmd_profile,
        [_address(8765)],
        help="sampling-profile a running server or router (collapsed "
        "flamegraph stacks on stdout)",
    )
    p.add_argument("--seconds", type=float, default=1.0, help="sampling window")
    p.add_argument("--hz", type=int, default=97, help="sampling frequency")
    p.add_argument(
        "-o", "--out", help="write collapsed stacks to this file instead of stdout"
    )

    ask = _address(None, "send the explain to a running server instead of building")
    p = command(
        "explain",
        _cmd_explain,
        [*built, opened, ask],
        help="per-level query profile (EXPLAIN) for one read query",
    )
    p.add_argument("query_op", choices=["point", "window", "nearest"])
    for name in ("--x", "--y", "--x1", "--y1", "--x2", "--y2"):
        p.add_argument(name, type=float)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", default="intersects", choices=["intersects", "contains"])
    p.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="text = rendered plan, json = the raw report object",
    )

    p = command(
        "bench", _cmd_bench, help="gate a BENCH_e2e.json record on a committed baseline"
    )
    p.add_argument(
        "record",
        help="the fresh record: the BENCH_e2e.json that `benchmarks/e2e/run.py "
        "--workload paper_core --trace --out DIR` wrote (its count-unit "
        "per-layer metrics gate at tolerance 0)",
    )
    p.add_argument(
        "--compare",
        required=True,
        metavar="BASELINE",
        help="committed BENCH_e2e.json to gate against (exit 1 on regression, "
        "2 if the records are not comparable)",
    )

    p = command(
        "check", _cmd_check, built, help="static index fsck (no queries executed)"
    )
    p.add_argument(
        "snapshot",
        nargs="?",
        help="snapshot file to check; omit to build --structure fresh",
    )
    p.add_argument("--rules", action="store_true", help="list fsck rules and exit")
    p.add_argument(
        "--wal",
        help="fsck a durable-store directory (rules FS07..FS10 plus the "
        "full checkpoint-snapshot walk)",
    )
    p.add_argument(
        "--shards",
        help="fsck a shard-set directory (rules SH01..SH05 plus the "
        "durable-store walk on every member)",
    )

    p = command(
        "lint",
        _cmd_lint,
        help="project AST lint (RP measurement rules, CC concurrency rules)",
    )
    p.add_argument("paths", nargs="*", default=["src/"], help="files or directories")
    p.add_argument("--rules", action="store_true", help="list lint rules and exit")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
