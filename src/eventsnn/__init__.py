"""Event-driven spiking network simulation and training.

Forward passes jump from spike to spike by solving the next threshold
crossing in closed form; gradients are estimated event-by-event from the
resulting trace, either with the adjoint (EventProp) backward pass or the
analytic first-spike derivative path.  The forward event source is pluggable:
the in-process solver or mock hardware.  A replay file of recorded spikes
feeds one gradient step (``eventsnn replay-train``).
"""
from .core import (
    DimensionMismatch,
    EventTrace,
    InvalidParameter,
    LifParams,
    Network,
    NonpositiveTimeConstant,
    Spike,
    SpikeKind,
    UnsupportedTauRatio,
)
from .lif import (
    CrossingResult,
    next_crossing_double_tau,
    next_crossing_equal_tau,
    next_crossing_safe,
)
from .sim import (
    InvalidBudget,
    UnsortedInput,
    simulate,
)
from .grad import DegenerateCrossing, eventprop_backward
from .data import EncodingConfig, LabelledRows, YinYangLabel, encode_dataset, generate
from .backend import (
    BackendConfig,
    MockConfig,
    ReplayShapeMismatch,
    ReplayUnsorted,
    forward,
    quantize_weights,
)
from .train import AdamState, ShapeMismatch, TtfsLoss, adam_step, train, ttfs_loss
from .config import ExperimentConfig, load_config, save_config

__version__ = "0.1.0"
