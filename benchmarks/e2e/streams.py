"""Seeded request streams: the only thing the measured program ever sees.

A stream is an endless iterator of wire-shaped request dicts, a pure
function of ``(workload, seed, connection)``; the same seed gives
byte-identical requests. The read mix is the same everywhere -- 60 %
point, 30 % window, 10 % nearest (k 1-3) -- and what varies by workload
is where the sites fall and what is mixed in:

* ``serve_read``: sites Zipf(1.1) over a fixed table of endpoints, and a
  request is a function of its site alone, so hot requests repeat
  exactly and the result cache and the buffer pool both see reuse;
* ``durable_rw``: uniform sites; 70 % reads, 20 % inserts, 10 % deletes
  of a segment this connection inserted earlier;
* ``routed_mixed``: uniform sites; 90 % reads, 10 % inserts.

A delete is generated with ``seg_id: None``; :class:`DeleteFiller` names
the victim once an earlier insert has been acknowledged with its id.
"""

from __future__ import annotations

import collections
import itertools
import random
from typing import Any, Deque, Dict, Iterator, List, Tuple

from .config import Config

Request = Dict[str, Any]
Site = Tuple[float, float]

#: Seed of everything that must not vary with ``--seed`` (the site table).
FIXED_SEED = 1992
#: A nearest query sits this far off its site, so its answer is not a
#: tie between the segments that meet there.
NEAREST_OFFSET = (7.0, 3.0)

READ_MIX = (("point", 0.6), ("window", 0.3), ("nearest", 0.1))
MIXES = {
    "serve_read": (("read", 1.0),),
    "durable_rw": (("read", 0.7), ("insert", 0.2), ("delete", 0.1)),
    "routed_mixed": (("read", 0.9), ("insert", 0.1)),
}


def endpoint(map_data, rng: random.Random) -> Site:
    seg = map_data.segments[rng.randrange(len(map_data.segments))]
    return (seg.x1, seg.y1) if rng.random() < 0.5 else (seg.x2, seg.y2)


def site_table(map_data, n: int) -> List[Site]:
    """``n`` distinct endpoints, the same for every seed."""
    rng = random.Random(FIXED_SEED)
    sites: Dict[Site, None] = {}
    while len(sites) < n:
        sites[endpoint(map_data, rng)] = None
    return list(sites)


def _pick(rng: random.Random, mix) -> str:
    draw = rng.random()
    for name, share in mix:
        draw -= share
        if draw < 0:
            return name
    return mix[-1][0]


def read_request(kind: str, site: Site, k: int, world: float, cfg: Config) -> Request:
    x, y = site
    if kind == "point":
        return {"op": "point", "x": x, "y": y}
    if kind == "window":
        half = cfg.window_share * world / 2.0
        return {
            "op": "window",
            "x1": max(0.0, x - half),
            "y1": max(0.0, y - half),
            "x2": min(float(world), x + half),
            "y2": min(float(world), y + half),
        }
    return {
        "op": "nearest",
        "x": x + NEAREST_OFFSET[0],
        "y": y + NEAREST_OFFSET[1],
        "k": k,
    }


def request_stream(
    workload: str, map_data, cfg: Config, seed: int, conn: int = 0
) -> Iterator[Request]:
    rng = random.Random(f"{workload}:{seed}:{conn}")
    world = map_data.world_size
    mix = MIXES[workload]
    if workload == "serve_read":
        table = site_table(map_data, cfg.zipf_sites)
        cum = list(
            itertools.accumulate(
                1.0 / (rank + 1) ** cfg.zipf_s for rank in range(len(table))
            )
        )
    while True:
        what = _pick(rng, mix)
        if workload == "serve_read":
            site = rng.choices(table, cum_weights=cum)[0]
        else:
            site = endpoint(map_data, rng)
        if what == "read":
            kind = _pick(rng, READ_MIX)
            # k follows from the site, so a hot nearest query repeats
            # exactly.
            k = 1 + (int(site[0]) + int(site[1])) % 3
            yield read_request(kind, site, k, world, cfg)
        elif what == "insert":
            # The new segment points into the map, so a whole-map window
            # finds it. Its coordinates are multiples of 1/64: pages and
            # WAL records hold float32, and these survive that exactly.
            dx, dy = rng.randrange(8, 129) / 64.0, rng.randrange(8, 129) / 64.0
            yield {
                "op": "insert",
                "x1": site[0],
                "y1": site[1],
                "x2": site[0] + (dx if site[0] < world / 2 else -dx),
                "y2": site[1] + (dy if site[1] < world / 2 else -dy),
            }
        else:
            yield {"op": "delete", "seg_id": None}


class DeleteFiller:
    """Gives each generated delete a victim: the oldest segment this
    connection inserted and has not deleted yet. With nothing to delete
    (only possible in the first few requests) the delete becomes the
    point read ``fallback``."""

    def __init__(self) -> None:
        self.inserted: Deque[int] = collections.deque()

    def acked_insert(self, seg_id: int) -> None:
        self.inserted.append(seg_id)

    def fill(self, request: Request, fallback: Request) -> Request:
        if request["op"] != "delete":
            return request
        if not self.inserted:
            return fallback
        return {"op": "delete", "seg_id": self.inserted.popleft()}


def static_sample(
    workload: str, map_data, cfg: Config, seed: int, n: int, first_new_id: int = 0
) -> List[Request]:
    """``n`` requests with delete victims predicted: replayed one at a
    time against a table of ``first_new_id`` segments, the i-th insert
    is given id ``first_new_id + i`` (only a mix with deletes needs it)."""
    stream = request_stream(workload, map_data, cfg, seed, conn=99)
    filler = DeleteFiller()
    fallback = read_request("point", endpoint(map_data, random.Random(seed)), 1,
                            map_data.world_size, cfg)
    next_id = first_new_id
    out: List[Request] = []
    for request in itertools.islice(stream, n):
        request = filler.fill(request, fallback)
        if request["op"] == "insert":
            filler.acked_insert(next_id)
            next_id += 1
        out.append(request)
    return out
