"""Schedulers: Tetris, baselines, ablations, and the loose upper bound."""

from repro.schedulers.base import Placement, Scheduler, adjust_for_placement
from repro.schedulers.alignment import (
    ALIGNMENT_SCORERS,
    AlignmentScorer,
    CosineAlignment,
    FFDProdAlignment,
    FFDSumAlignment,
    L2NormDiffAlignment,
    L2NormRatioAlignment,
    get_scorer,
)
from repro.schedulers.fairness_policy import (
    DRFFairnessPolicy,
    FairnessPolicy,
    SlotFairnessPolicy,
)
from repro.schedulers.fair_share import FairShareScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.flow_network import FlowNetworkScheduler
from repro.schedulers.slot_fair import SlotFairScheduler
from repro.schedulers.capacity import CapacityScheduler
from repro.schedulers.drf import DRFScheduler
from repro.schedulers.tetris import TetrisConfig, TetrisScheduler
from repro.schedulers.srtf import SRTFScheduler
from repro.schedulers.packing_only import PackingOnlyScheduler
from repro.schedulers.upper_bound import UpperBoundResult, aggregate_upper_bound

__all__ = [
    "Placement",
    "Scheduler",
    "adjust_for_placement",
    "AlignmentScorer",
    "CosineAlignment",
    "L2NormDiffAlignment",
    "L2NormRatioAlignment",
    "FFDProdAlignment",
    "FFDSumAlignment",
    "ALIGNMENT_SCORERS",
    "get_scorer",
    "FairnessPolicy",
    "SlotFairnessPolicy",
    "DRFFairnessPolicy",
    "FairShareScheduler",
    "FifoScheduler",
    "FlowNetworkScheduler",
    "SlotFairScheduler",
    "CapacityScheduler",
    "DRFScheduler",
    "TetrisConfig",
    "TetrisScheduler",
    "SRTFScheduler",
    "PackingOnlyScheduler",
    "UpperBoundResult",
    "aggregate_upper_bound",
]
