"""The paper's hybrid R+-tree / k-d-B-tree, and the true R+-tree."""

from repro.core.rplus.rplus import RPlusTree
from repro.core.rplus.true_rplus import TrueRPlusTree

__all__ = ["RPlusTree", "TrueRPlusTree"]
