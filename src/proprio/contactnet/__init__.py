"""From-scratch 1-D CNN contact classifier: architecture, training, I/O."""

from .network import (
    ArchitectureSpec,
    Conv,
    Dense,
    Dropout,
    Flatten,
    Pool,
    Relu,
    ShapeMismatchError,
    cast_params,
    forward,
    init_params,
    load_params,
    loss,
    predict_batch,
    preset,
    save_params,
    trace_shapes,
)
from .training import TrainConfig, evaluate_accuracy, predict_codes, train, write_training_log
