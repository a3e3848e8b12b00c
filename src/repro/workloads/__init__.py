"""Workload generators and the paper's failure scenarios."""

from .generators import (
    BernoulliWorkload,
    BurstWorkload,
    FixedBudgetWorkload,
    NullWorkload,
    PoissonWorkload,
    ScriptedWorkload,
    Workload,
    ZipfTopics,
    payload_for,
)
from .scenarios import (
    consecutive_coordinator_crashes,
    crashes,
    general_omission,
    omission,
    reliable,
)

__all__ = [
    "BernoulliWorkload",
    "BurstWorkload",
    "PoissonWorkload",
    "FixedBudgetWorkload",
    "NullWorkload",
    "ScriptedWorkload",
    "Workload",
    "ZipfTopics",
    "payload_for",
    "consecutive_coordinator_crashes",
    "crashes",
    "general_omission",
    "omission",
    "reliable",
]
