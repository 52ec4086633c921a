"""Flow-matching forecaster for marked temporal point processes."""

from .errors import NumericalError, ValidationError
from .events import (
    EventSequence,
    ForecastWindow,
    load_jsonl,
    make_windows,
    save_jsonl,
    split_window,
    to_inter_event,
)
from .metrics import OtdConfig, evaluate_windows, otd, rmse_x, rmse_y, smape
from .model import (
    Model,
    ModelConfig,
    TrainConfig,
    corrupt_mark,
    estimate_lambda,
    interpolate_time,
    train,
)
from .sampler import (
    SamplerConfig,
    generate,
    predictions_to_sequences,
)
from .synthgen import HawkesSpec, simulate_hawkes, simulate_poisson

__version__ = "0.1.0"

__all__ = [
    "EventSequence",
    "ForecastWindow",
    "HawkesSpec",
    "Model",
    "ModelConfig",
    "NumericalError",
    "OtdConfig",
    "SamplerConfig",
    "TrainConfig",
    "ValidationError",
    "corrupt_mark",
    "estimate_lambda",
    "evaluate_windows",
    "generate",
    "interpolate_time",
    "load_jsonl",
    "make_windows",
    "otd",
    "predictions_to_sequences",
    "rmse_x",
    "rmse_y",
    "save_jsonl",
    "simulate_hawkes",
    "simulate_poisson",
    "smape",
    "split_window",
    "to_inter_event",
    "train",
    "__version__",
]
