"""Liquid state-space kernels: LegS/DPLR initialization, Krylov-block
kernel generation, input-correlation kernels, oracles, and a training demo."""

from .conv import SequenceBatch, causal_conv, causal_conv_direct, recurrent_s4
from .kernel import Kernel, kernel_genfn, kernel_naive
from .liquid import (
    LiquidKernelSet,
    build_liquid_kernels,
    correlation_signals,
    default_window,
    liquid_expansion_oracle,
    liquid_oracle,
    recurrent_liquid,
)
from .model import (
    LayerConfig,
    ModelStack,
    SequenceClassifier,
    SyntheticTask,
    finite_difference_gradient,
    generate_task,
    train_demo,
)
from .pipeline import feature_systems, forward_liquid_s4
from .seqio import read_sequences, write_sequences
from .ssm import (
    DiscreteSystem,
    DplrSystem,
    discretize_bilinear,
    hippo_legs,
    init_dt_schedule,
    legs_init_vectors,
    nplr_decompose,
)
from .verify import CheckResult, run_suite

__all__ = [
    "CheckResult",
    "DiscreteSystem",
    "DplrSystem",
    "Kernel",
    "LayerConfig",
    "LiquidKernelSet",
    "ModelStack",
    "SequenceBatch",
    "SequenceClassifier",
    "SyntheticTask",
    "build_liquid_kernels",
    "causal_conv",
    "causal_conv_direct",
    "correlation_signals",
    "default_window",
    "discretize_bilinear",
    "feature_systems",
    "finite_difference_gradient",
    "forward_liquid_s4",
    "generate_task",
    "hippo_legs",
    "init_dt_schedule",
    "kernel_genfn",
    "kernel_naive",
    "legs_init_vectors",
    "liquid_expansion_oracle",
    "liquid_oracle",
    "nplr_decompose",
    "read_sequences",
    "recurrent_liquid",
    "recurrent_s4",
    "run_suite",
    "train_demo",
    "write_sequences",
]

__version__ = "0.1.0"
