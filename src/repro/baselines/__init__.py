"""Baseline OPC engines the paper compares against.

* :class:`~repro.baselines.mbopc.MBOPC` — iterative model-based OPC, the
  stand-in for the commercial Calibre engine (and the phase-1 teacher);
* :class:`~repro.baselines.rlopc.RLOPC` — reimplementation of RL-OPC [12]:
  per-segment independent decisions, no GNN/RNN, no modulator;
* :class:`~repro.baselines.damo.DamoLikeOPC` — DAMO-profile one-shot
  generative surrogate: single-inference correction, no exploration.
"""

from repro.baselines.mbopc import MBOPC
from repro.baselines.rlopc import RLOPC
from repro.baselines.damo import DamoLikeOPC

__all__ = ["MBOPC", "RLOPC", "DamoLikeOPC"]
