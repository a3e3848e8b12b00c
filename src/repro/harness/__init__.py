"""Experiment harness: simulation drivers, per-figure experiments,
parameter sweeps, and the experiment registry.

The live-runtime harnesses (:mod:`.live_torture`, :mod:`.recover_torture`,
:mod:`.adversarial`) are imported from their modules, not here, so that
importing the simulator does not load the asyncio runtime.
"""

from .cbcast_cluster import CbcastCluster
from .cluster import SimCluster
from .sweep import SweepResult, sweep

__all__ = [
    "CbcastCluster",
    "SimCluster",
    "SweepResult",
    "sweep",
]
