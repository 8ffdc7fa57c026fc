"""The six synthetic counties mirroring the paper's test maps.

Paper (Section 6): "Tests were run on 6 maps of counties in Maryland where
each map contained approximately 50,000 line segments. The counties
included urban areas (Baltimore), suburban areas (Anne Arundel), and rural
areas (Cecil, Charles, Garrett, and Washington)."

Character calibration:

* **baltimore** -- a dominant dense urban core (average surrounding
  polygon ~19 edges in the paper: mostly city blocks, some larger);
* **anne_arundel** -- suburban: several medium developments;
* **charles** -- the most rural profile (average polygon 132 edges in the
  paper): mostly meandering road/stream pairs;
* **cecil / garrett / washington** -- rural with varying walk/background
  mixes.

Segment counts default to the paper's (about 46-51 thousand per county)
scaled by ``scale``. The committed reproduction record (REPORT.json) and
the e2e benchmarks run at scale 1.0; tests and quick checks use smaller
scales (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List

from repro.data.generator import GeneratorSpec, MapData, generate_map

#: Paper Table 1 segment counts.
_PAPER_COUNTS: Dict[str, int] = {
    "anne_arundel": 46335,
    "baltimore": 48068,
    "cecil": 46900,
    "charles": 50998,
    "garrett": 49895,
    "washington": 49575,
}

COUNTY_NAMES: List[str] = sorted(_PAPER_COUNTS)


def _require_county(name: str) -> None:
    if name not in _PAPER_COUNTS:
        raise KeyError(f"unknown county {name!r}; choose from {COUNTY_NAMES}")


def county_profile(name: str, target_segments: int, world_size: int = 16384) -> GeneratorSpec:
    """The generator parameters of one synthetic county."""
    _require_county(name)
    base_seed = 0x51630 + sum(ord(c) for c in name)
    if name == "baltimore":
        return GeneratorSpec(
            kind="urban",
            target_segments=target_segments,
            seed=base_seed,
            world_size=world_size,
            blobs=[(0.5, 0.5, 0.30, 0.97), (0.75, 0.3, 0.12, 0.85)],
            background=0.35,
            diagonal_fraction=0.02,
        )
    if name == "anne_arundel":
        return GeneratorSpec(
            kind="suburban",
            target_segments=target_segments,
            seed=base_seed,
            world_size=world_size,
            blobs=[
                (0.3, 0.7, 0.12, 0.9),
                (0.6, 0.4, 0.15, 0.85),
                (0.8, 0.75, 0.10, 0.8),
                (0.25, 0.25, 0.08, 0.8),
            ],
            background=0.30,
            walk_fraction=0.05,
            tandem_probability=0.0,
        )
    if name == "charles":
        return GeneratorSpec(
            kind="rural",
            target_segments=target_segments,
            seed=base_seed,
            world_size=world_size,
            blobs=[(0.4, 0.6, 0.06, 0.75)],
            background=0.04,
            walk_fraction=0.70,
            tandem_probability=0.5,
        )
    # cecil, garrett and washington: rural with varying mixes.
    background, walk_fraction, tandem = {
        "cecil": (0.08, 0.55, 0.35),
        "garrett": (0.05, 0.65, 0.45),
        "washington": (0.06, 0.55, 0.35),
    }[name]
    return GeneratorSpec(
        kind="rural",
        target_segments=target_segments,
        seed=base_seed,
        world_size=world_size,
        blobs=[(0.5, 0.35, 0.08, 0.8)],
        background=background,
        walk_fraction=walk_fraction,
        tandem_probability=tandem,
    )


def generate_county(
    name: str, scale: float = 1.0, world_size: int = 16384
) -> MapData:
    """Generate one synthetic county at a fraction of the paper's size."""
    _require_county(name)
    if not 0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    target = max(64, int(_PAPER_COUNTS[name] * scale))
    return generate_map(name, county_profile(name, target, world_size))
