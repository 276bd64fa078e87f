"""lrbench: learning-rate schedule toolkit and training benchmark.

Cosine annealing with warm restarts and doubling cycle lengths, an LR range
test with a suggestion heuristic, three-group differential learning rates,
cached-feature head training, a small numpy neural-network trainer with
checked gradients, and a CLI that benchmarks a conventional fixed-rate
baseline against the optimized pipeline.
"""

from .bench import (BenchConfig, RunReport, confusion, emit_report,
                    run_conventional, run_optimized, speedup)
from .data import (Dataset, augment_batch, load_cifar10, make_blobs,
                   normalize, split)
from .errors import ConfigError, DataError, LRBenchError
from .finder import (LRFinderTrace, NoDescentFound, RangeTestConfig,
                     range_test, suggest_lr)
from .groups import LayerGroupRates, group_lr_at, precompute_features
from .nn import Model, backward, build_cnn, build_mlp, forward, sgd_step
from .schedule import CosineCycleConfig, cosine_lr, dump_schedule, lr_at
from .train import PhaseResult, TrainConfig, evaluate

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "PhaseResult", "RunReport", "confusion", "emit_report",
    "run_conventional", "run_optimized", "speedup",
    "Dataset", "augment_batch", "load_cifar10", "make_blobs", "normalize",
    "split",
    "ConfigError", "DataError", "LRBenchError",
    "LRFinderTrace", "NoDescentFound", "RangeTestConfig", "range_test",
    "suggest_lr",
    "LayerGroupRates", "group_lr_at", "precompute_features",
    "Model", "backward", "build_cnn", "build_mlp", "forward", "sgd_step",
    "CosineCycleConfig", "cosine_lr", "dump_schedule", "lr_at",
    "TrainConfig", "evaluate",
    "__version__",
]
