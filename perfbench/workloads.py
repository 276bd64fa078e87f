"""The benchmark's workloads: which inputs each one generates from a seed,
how lrbench is configured for it, and which traced layers it must exercise.

blobs-mlp is the acceptance fixture: 3x8x8 Gaussian blobs, the MLP, target
0.99 and a 40-step range test at batch 128. Its matrices are tiny, so
per-step overhead dominates; it has no conv, no augmentation and no file
parse, which makes it the workload that bypasses conv, augmentation and
loader changes. It is not listed in BENCHMARK.json: with 99 validation rows
the target needs 99/99, and about 1 optimized run in 600 ends at 98/99
(e.g. input seeds 20100157 and 20300182), while the conventional run and a
nearest-class-mean classifier get 99/99 on the same split. Those runs count
in ``failed``, so two sets of timed runs disagree on their failure counts.
Run it by name to see them.

cifar-cnn and cifar-mlp read the same generated CIFAR-10-format records
through ``load_cifar10`` with augmentation on (the CLI default for
``cifar10:`` datasets). The CNN is the only workload that runs the conv and
pool kernels; the MLP runs ``Dense`` at a 3072-wide input and makes
``augment_batch`` a large share of its time.

The cifar recipe was chosen so that no pipeline run failed on any seed
tried (0 of 120 CNN runs over seeds 900000-900029 and 4300000-4300029, 0
of 800 MLP runs over seeds 0-199 and 4100000-4100199) and all three
optimized phases ran (range test, head_sgdr, dlr_clm) on 60 of 60 CNN and
398 of 400 MLP seeds:
- target 0.8 on a 2:1 split of 12 records per class (80 train, 40 valid);
- every phase has a budget of 24 epochs at batch 16, and patience equals
  max_epochs, so early stopping never cuts a phase short. With patience 2
  to 4, noise in a 40-sample validation set stopped a phase below the
  target on about 1 seed in 50, and the conventional epoch count varied by
  a fifth from seed to seed, which made its time too noisy to compare.
  With 12 epochs the CNN missed the target on 1 seed in 170. With 16,
  1 of about 4,700 MLP optimized runs missed (input seed 3100128: dlr_clm
  at 0.775 after 16 epochs, 0.8 after 18); dlr_clm needed at most 12
  epochs on every other MLP seed and at most 13 on 757 CNN seeds. The
  conventional pipeline checks the target only in its second phase, so
  its first phase always runs the whole budget: 24 epochs make it take
  half as long again as 16 did, and the speedup grows with it;
- lr1 0.005 and group rates (0.0015, 0.005, 0.015): at twice these rates
  the CNN's loss spiked and some runs never recovered;
- lr2 0.0015: at lr1/10 the second conventional phase was too slow to
  rescue a first phase that ended below the target;
- a range-test ramp of 1e-4..0.03: with a ramp to 0.1 or more the
  suggestion was sometimes a peak rate after which fine-tuning missed the
  target.
One CNN pipeline pair then takes about 4 s on one core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from lrbench.bench import BenchConfig
from lrbench.finder import RangeTestConfig
from lrbench.groups import LayerGroupRates
from lrbench.train import TrainConfig

import cifar_gen

CIFAR_PER_CLASS = 12
CIFAR_EPOCHS = 24

# Spans every workload must record at least once in a traced run.
COMMON_SPANS = (
    "bench.load_bench_dataset", "bench.build_model", "bench.run_conventional",
    "bench.run_optimized", "bench.predictions", "bench.confusion",
    "bench.emit_report", "train.train_phase.fixed_lr1",
    "train.train_phase.head_sgdr", "train.evaluate", "finder.range_test",
    "groups.precompute_features", "schedule.lr_at", "nn.forward",
    "nn.backward", "nn.sgd_step", "nn.train_step", "nn.Dense.forward",
    "nn.Dense.backward", "nn.ReLU.forward", "nn.ReLU.backward", "data.split",
)
CIFAR_SPANS = (
    "data.load_cifar10", "data.normalize", "data.augment_batch",
    "train.train_phase.dlr_clm", "groups.group_lr_at",
)
CONV_SPANS = (
    "nn.Conv2d.forward", "nn.Conv2d.backward", "nn.MaxPool2.forward",
    "nn.MaxPool2.backward",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: str
    cifar: bool
    trace_seeds: int  # seeds in a traced pass; fixed, so counts repeat
    expected_spans: tuple = field(default=())

    def config(self, seed: int, data_dir: Path) -> BenchConfig:
        """lrbench's config for one input seed. For cifar workloads this
        also writes the seed's records to data_dir/records.bin, replacing
        the previous seed's; that generation is the benchmark's work and is
        not part of set-up time."""
        if not self.cifar:
            return BenchConfig(
                model=self.model, train=TrainConfig(max_epochs=30, seed=seed),
                finder=RangeTestConfig(lr_lo=1e-3, lr_hi=2.0, n_steps=40,
                                       smoothing_beta=0.9),
                finder_batch=128, target_accuracy=0.99)
        path = cifar_gen.write_records(
            data_dir / "records.bin", CIFAR_PER_CLASS, seed)
        return BenchConfig(
            dataset=f"cifar10:{path}", model=self.model,
            n_per_class=CIFAR_PER_CLASS, split_num=2, split_den=1,
            train=TrainConfig(seed=seed, augment=True, batch_size=16,
                              max_epochs=CIFAR_EPOCHS),
            finder=RangeTestConfig(lr_lo=1e-4, lr_hi=0.03, n_steps=15,
                                   smoothing_beta=0.9),
            rates=LayerGroupRates(0.0015, 0.005, 0.015),
            lr1=0.005, lr2=0.0015, target_accuracy=0.8,
            patience=CIFAR_EPOCHS)


WORKLOADS = {w.name: w for w in (
    Workload("blobs-mlp",
             "acceptance fixture: tiny MLP on blobs, per-step overhead bound;"
             " bypasses conv, augmentation and file parsing",
             "mlp", False, 48, COMMON_SPANS + ("data.make_blobs",)),
    Workload("cifar-cnn",
             "generated CIFAR-10 records through load_cifar10, CNN with"
             " augmentation; the only workload running conv and pool kernels",
             "cnn", True, 4, COMMON_SPANS + CIFAR_SPANS + CONV_SPANS),
    Workload("cifar-mlp",
             "same records with the MLP: 3072-wide Dense, augmentation and"
             " sgd_step dominate; a conv change should leave it alone",
             "mlp", True, 12, COMMON_SPANS + CIFAR_SPANS),
)}
