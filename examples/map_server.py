#!/usr/bin/env python3
"""Map server: snapshot an index, reopen it, and serve it concurrently.

The paper's harness builds an index, measures it, and throws it away.
This example runs the full service lifecycle instead:

1. build an R*-tree over a synthetic county and **save** it as a
   queryable snapshot (pages + manifest);
2. **reopen** the snapshot -- no rebuild inserts, identical statistics;
3. serve it over JSON-over-TCP to a few concurrent clients, from the
   asyncio server that ``python -m repro serve`` runs;
4. execute a shuffled query batch in arrival order and in Morton order
   and compare the buffer-pool misses.

Run:  python examples/map_server.py
"""

import io
import json
import random
import socket
import threading

from repro import generate_county
from repro.aio import AsyncMapServer
from repro.harness.experiment import build_structure
from repro.service import BatchExecutor, QueryEngine, open_index, save_index


def main() -> None:
    county = generate_county("cecil", scale=0.02)
    built = build_structure("R*", county)
    index = built.index
    print(
        f"built {index.name} over {county.name!r}: "
        f"{len(county)} segments, {index.page_count()} pages, "
        f"height {index.height()}"
    )

    # --- 1+2: snapshot round-trip (in memory; pass a path for a file) ---
    buf = io.BytesIO()
    pages = save_index(index, buf)
    buf.seek(0)
    served = open_index(buf)
    print(
        f"snapshot: {pages} pages; reopened with zero rebuild inserts "
        f"(pages {served.page_count()}, entries {served.entry_count()}, "
        f"writes so far: {served.ctx.counters.disk_writes})"
    )

    # --- 3: concurrent clients over TCP -------------------------------
    engine = QueryEngine(served, cache_capacity=128)
    server = AsyncMapServer(engine)  # ephemeral port
    server.start_background()
    host, port = server.address

    def client(name: str, n: int) -> None:
        rng = random.Random(sum(map(ord, name)))
        with socket.create_connection((host, port)) as sock:
            with sock.makefile("rwb") as fh:
                for _ in range(n):
                    seg = county.segments[rng.randrange(len(county.segments))]
                    fh.write(
                        (json.dumps({"op": "point", "x": seg.x1, "y": seg.y1}) + "\n").encode()
                    )
                    fh.flush()
                    response = json.loads(fh.readline())
                    assert response["ok"], response

    workers = [
        threading.Thread(target=client, args=(f"client-{i}", 30)) for i in range(3)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    stats = engine.stats()
    print(
        f"served {sum(s['queries'] for s in stats['sessions'])} queries "
        f"over {len(stats['sessions'])} sessions on {host}:{port}; "
        f"cache hit rate {stats['cache']['hit_rate']:.0%}, "
        f"counters consistent: {stats['counters_consistent']}"
    )
    server.stop()

    # --- 4: batch scheduling study ------------------------------------
    rng = random.Random(7)
    requests = []
    for _ in range(150):
        seg = county.segments[rng.randrange(len(county.segments))]
        requests.append({"op": "point", "x": seg.x1, "y": seg.y1})
    rng.shuffle(requests)
    comparison = BatchExecutor(engine).compare_orders(requests)
    arrival = comparison["arrival"].disk_accesses
    morton = comparison["morton"].disk_accesses
    print(
        f"batch of {len(requests)} shuffled point queries: "
        f"{arrival} disk accesses in arrival order, {morton} sorted by "
        f"Morton key ({1 - morton / arrival:.0%} fewer)"
    )


if __name__ == "__main__":
    main()
