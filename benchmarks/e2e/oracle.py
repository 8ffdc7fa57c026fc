"""The correctness oracle: a linear scan over the live segment list.

The unit of truth for every workload. ``Oracle`` holds the segments that
are live (the generated map, plus acknowledged inserts, minus
acknowledged deletes) and answers each read by testing every one of them
with the geometry predicates -- ``has_endpoint``, ``intersects_rect``,
``distance2_to_point`` -- after a bounding-box rejection that only skips
segments the predicate would reject too. No index, no shared code path
with the structures under test.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.geometry import Point, Rect, Segment

#: Relative tolerance on squared distances (the wire carries them as JSON
#: floats; the structures and the scan compute them in different orders).
D2_TOLERANCE = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= D2_TOLERANCE * max(1.0, abs(a), abs(b))


class Oracle:
    def __init__(self, segments: Sequence[Segment]) -> None:
        self.live: Dict[int, Segment] = dict(enumerate(segments))
        self._rows: Optional[List[Tuple]] = None

    def insert(self, seg_id: int, segment: Segment) -> None:
        self.live[seg_id] = segment
        self._rows = None

    def delete(self, seg_id: int) -> None:
        del self.live[seg_id]
        self._rows = None

    def rows(self) -> List[Tuple]:
        """``(id, xmin, ymin, xmax, ymax, segment)`` per live segment."""
        if self._rows is None:
            self._rows = [
                (sid, min(s.x1, s.x2), min(s.y1, s.y2),
                 max(s.x1, s.x2), max(s.y1, s.y2), s)
                for sid, s in self.live.items()
            ]
        return self._rows

    # ------------------------------------------------------------------
    # The scans
    # ------------------------------------------------------------------
    def point(self, x: float, y: float) -> List[int]:
        p = Point(x, y)
        return sorted(
            sid for sid, x1, y1, x2, y2, seg in self.rows()
            if x1 <= x <= x2 and y1 <= y <= y2 and seg.has_endpoint(p)
        )

    def window(self, x1: float, y1: float, x2: float, y2: float) -> List[int]:
        rect = Rect(x1, y1, x2, y2)
        return sorted(
            sid for sid, sx1, sy1, sx2, sy2, seg in self.rows()
            if sx1 <= x2 and sx2 >= x1 and sy1 <= y2 and sy2 >= y1
            and seg.intersects_rect(rect)
        )

    def within(self, x: float, y: float, d2: float) -> Dict[int, float]:
        """Squared distance of every live segment no farther than ``d2``."""
        p = Point(x, y)
        reach = math.sqrt(d2) * (1.0 + 1e-9) + 1e-9
        out: Dict[int, float] = {}
        for sid, x1, y1, x2, y2, seg in self.rows():
            if (x1 - reach <= x <= x2 + reach and y1 - reach <= y <= y2 + reach):
                dist2 = seg.distance2_to_point(p)
                if dist2 <= d2 or _close(dist2, d2):
                    out[sid] = dist2
        return out

    # ------------------------------------------------------------------
    # Checking answers
    # ------------------------------------------------------------------
    def check_ids(self, got: Any, want: List[int]) -> Optional[str]:
        if not isinstance(got, list) or len(got) != len(set(got)):
            return f"not a duplicate-free id list: {got!r}"
        if sorted(got) != want:
            return f"got ids {sorted(got)!r}, scan says {want!r}"
        return None

    def check_nearest(self, x: float, y: float, k: int, got: Any) -> Optional[str]:
        """``got`` is ``[(seg_id, dist2), ...]``, nearest first: it must
        have ``min(k, live)`` distinct live ids, each with its true
        distance, in order, and the scan must find nothing nearer that
        it omits."""
        if not isinstance(got, list) or len(got) != min(k, len(self.live)):
            return f"wanted {min(k, len(self.live))} neighbours, got {got!r}"
        ids = [int(pair[0]) for pair in got]
        dists = [float(pair[1]) for pair in got]
        if len(set(ids)) != len(ids) or any(sid not in self.live for sid in ids):
            return f"neighbours not distinct live ids: {got!r}"
        if any(b < a and not _close(a, b) for a, b in zip(dists, dists[1:])):
            return f"neighbours out of order: {got!r}"
        p = Point(x, y)
        for sid, dist2 in zip(ids, dists):
            true = self.live[sid].distance2_to_point(p)
            if not _close(true, dist2):
                return f"segment {sid} is at d2 {true!r}, reported {dist2!r}"
        nearer = self.within(x, y, dists[-1])
        missed = [
            sid for sid, dist2 in nearer.items()
            if sid not in ids and dist2 < dists[-1] and not _close(dist2, dists[-1])
        ]
        if missed:
            return f"scan finds nearer segments {sorted(missed)!r} than {got!r}"
        return None

    def check_response(self, request: Dict[str, Any], response: Any) -> Optional[str]:
        """``None`` when a wire response answers a read request correctly."""
        if not isinstance(response, dict) or not response.get("ok"):
            return f"{request!r} failed: {response!r}"
        result = response.get("result")
        op = request["op"]
        if op == "point":
            return self.check_ids(result, self.point(request["x"], request["y"]))
        if op == "window":
            return self.check_ids(
                result,
                self.window(request["x1"], request["y1"], request["x2"], request["y2"]),
            )
        if op == "nearest":
            return self.check_nearest(request["x"], request["y"], request["k"], result)
        return f"the oracle does not check op {op!r}"
