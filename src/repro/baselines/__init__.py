"""Baselines the paper compares against: Naive, Simba, DFT, VP-tree, MBE."""

from .dft import DFTEngine, segment_trajectory
from .mbe import MBEIndex, envelope
from .naive import NaiveEngine
from .simba import SimbaEngine
from .vptree import VPTree

__all__ = [
    "DFTEngine",
    "MBEIndex",
    "NaiveEngine",
    "SimbaEngine",
    "VPTree",
    "envelope",
    "segment_trajectory",
]
