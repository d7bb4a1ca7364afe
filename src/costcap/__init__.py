"""Value-maximizing multi-label prediction sets with online conformal cost
control, backed by an exact weighted-quantile search tree."""

from .controller import (
    CostController,
    SampleRecord,
    StepResult,
    classwise_predict,
    classwise_thresholds,
    oracle_threshold_expected,
    oracle_threshold_violation,
    select_max_value,
    threshold_comparison,
)
from .quantile_tree import ABOVE_ALL, BELOW_ALL, QuantileTree
from .set_functions import Sample, SetFunctionSpec
from .synth import GeneratorConfig, generate, mnist_weights
from .universe import (
    UniverseSeq,
    build_universe,
    full_universe,
    greedy_prob,
    greedy_ratio_additive,
    greedy_ratio_general,
    greedy_value,
)

__all__ = [
    "ABOVE_ALL",
    "BELOW_ALL",
    "CostController",
    "GeneratorConfig",
    "QuantileTree",
    "Sample",
    "SampleRecord",
    "SetFunctionSpec",
    "StepResult",
    "UniverseSeq",
    "build_universe",
    "classwise_predict",
    "classwise_thresholds",
    "full_universe",
    "generate",
    "greedy_prob",
    "greedy_ratio_additive",
    "greedy_ratio_general",
    "greedy_value",
    "mnist_weights",
    "oracle_threshold_expected",
    "oracle_threshold_violation",
    "select_max_value",
    "threshold_comparison",
]

__version__ = "0.1.0"
