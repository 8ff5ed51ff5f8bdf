"""Joint pinching-antenna placement and transmit beamforming.

Two staged permutation-equivariant GNNs map user positions to a feasible
antenna layout and a power-exact precoder, trained unsupervised against the
negative sum spectral efficiency on a small hand-rolled reverse-mode tape.
"""

__version__ = "0.1.0"

from .config import ModelConfig, SystemConfig, default_config
from .physics import (AntennaLayout, UserPositions, build_pinching_matrix,
                      check_feasibility, compute_channel, compute_se,
                      effective_channel, layout_positions, sample_users)
from .training import TrainConfig, TrainReport, evaluate, train

__all__ = [
    "AntennaLayout",
    "ModelConfig",
    "SystemConfig",
    "TrainConfig",
    "TrainReport",
    "UserPositions",
    "build_pinching_matrix",
    "check_feasibility",
    "compute_channel",
    "compute_se",
    "default_config",
    "effective_channel",
    "evaluate",
    "layout_positions",
    "sample_users",
    "train",
]
