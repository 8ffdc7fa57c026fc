"""The PMR quadtree, stored as a linear quadtree in a paged B-tree."""

from repro.core.pmr.blocks import PMRBlock
from repro.core.pmr.locational import deinterleave, interleave, locational_code
from repro.core.pmr.pmr import PMRQuadtree

__all__ = [
    "PMRBlock",
    "PMRQuadtree",
    "deinterleave",
    "interleave",
    "locational_code",
]
