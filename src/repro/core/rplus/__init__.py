"""The paper's hybrid R+-tree / k-d-B-tree."""

from repro.core.rplus.rplus import RPlusTree

__all__ = ["RPlusTree"]
