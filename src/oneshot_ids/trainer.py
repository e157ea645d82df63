"""Training orchestration: pair batch, epoch loop, telemetry.

By default one pair batch is generated in the first epoch and swept
repeatedly, one optimizer step per `minibatch_size` consecutive pairs;
`fresh_batch_per_epoch` regenerates it every epoch. The class-balanced
sampler draws a small class's rows many times, so a step works on its
distinct rows: once per generated batch, `_step_plan` lists each step's
distinct dataset rows and each pair's positions among them, and a step
gathers only those rows, which `batch_gradients` embeds once each. An
optional hook sees each epoch's model, loss and new batch. Training is
deterministic given the config seed. The model trains, and is returned, in
float32 (`COMPUTE_DTYPE`): its float64 initial draws are rounded once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .dataset import COMPUTE_DTYPE, ExperimentSplit, write_csv
from .network import (
    ConfigError,
    LossConfig,
    SiameseModel,
    apply_update,
    batch_gradients,
    checked_layers,
    init_model,
    init_momentum_state,
)
from .pairgen import PairBatch, generate_training_batch
from .seeding import INIT_STREAM, PAIR_STREAM, stream_rng

DEFAULT_ARCHITECTURE = (64, 32, 16)   # hidden widths then embedding width
_PLAN_PAIRS = 8192    # pairs per np.unique call while `_step_plan` builds a plan


@dataclass(frozen=True)
class TrainingConfig:
    train_batch_size: int = 30000
    test_batch_size: int = 30000
    n_epochs: int = 2000
    minibatch_size: int = 256
    fresh_batch_per_epoch: bool = False
    loss: LossConfig = field(default_factory=LossConfig)
    architecture: tuple[int, ...] = DEFAULT_ARCHITECTURE
    activation: str = "sigmoid"
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        for name in ("train_batch_size", "test_batch_size", "n_epochs", "minibatch_size"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive", name)
        if self.minibatch_size > self.train_batch_size:
            raise ConfigError("minibatch_size cannot exceed train_batch_size",
                              "minibatch_size", "train_batch_size")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}",
                              "learning_rate")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum!r}", "momentum")
        checked_layers(self.architecture, self.activation)


@dataclass
class TrainingTrace:
    """Per-epoch mean pair loss and wall-clock seconds."""

    losses: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    steps: int = 0

    def __len__(self) -> int:
        return len(self.losses)

    def to_csv(self, path: str | Path) -> None:
        epochs = enumerate(zip(self.losses, self.seconds), start=1)
        write_csv(path, [("epoch", "loss", "seconds"),
                         *((epoch, loss, f"{secs:.6f}") for epoch, (loss, secs) in epochs)])


@dataclass(frozen=True)
class _StepPlan:
    """Each step's distinct dataset rows, and each pair's rows as positions
    among its step's.

    Step s's distinct rows are `rows[bounds[s]:bounds[s + 1]]`, in
    ascending order; pair k of step s is that block's rows `left[k]` and
    `right[k]`.
    """

    rows: np.ndarray       # (<= 2B,) int64 dataset rows, step after step
    bounds: np.ndarray     # (steps + 1,) int64 offsets into `rows`
    left: np.ndarray       # (B,) int64 positions within the pair's step
    right: np.ndarray


def _step_plan(batch: PairBatch, minibatch_size: int, n_rows: int) -> _StepPlan:
    """The plan for sweeping `batch` in steps of `minibatch_size` pairs over
    a dataset of `n_rows` rows.

    One `np.unique` over (step, row) keys lists a group of steps' distinct
    rows and numbers each pair's rows among them. A group is as many whole
    steps as fit in `_PLAN_PAIRS` pairs (at least one), which bounds the
    temporary memory of a large batch.
    """
    b = len(batch)
    group = max(1, _PLAN_PAIRS // minibatch_size) * minibatch_size
    rows, bounds = [], [np.zeros(1, dtype=np.int64)]
    positions = np.empty((2, b), dtype=np.int64)     # left, then right
    for start in range(0, b, group):
        pairs = slice(start, start + group)
        keys = np.concatenate((batch.left_idx[pairs], batch.right_idx[pairs]))
        steps = np.tile(np.arange(len(keys) // 2) // minibatch_size, 2)
        keys += steps * n_rows
        distinct, inverse = np.unique(keys, return_inverse=True)
        step_of, distinct_rows = np.divmod(distinct, n_rows)
        # where each step of the group starts among its distinct keys
        first = np.searchsorted(step_of, np.arange(steps[-1] + 2))
        inverse -= first[steps]
        positions[:, pairs] = inverse.reshape(2, -1)
        rows.append(distinct_rows)
        bounds.append(first[1:] + bounds[-1][-1])
    return _StepPlan(np.concatenate(rows), np.concatenate(bounds), *positions)


def run_training(
    split: ExperimentSplit,
    cfg: TrainingConfig,
    on_epoch: Callable[[int, SiameseModel, float, PairBatch | None], object] | None = None,
) -> tuple[SiameseModel, TrainingTrace]:
    """Train a twin network on `split`, whose excluded class is withheld.

    After each epoch's timed steps, `on_epoch(epoch, model, loss, batch)`
    gets the 0-based epoch, the model, the epoch's mean pair loss and the
    batch generated in that epoch or None. Its return value is ignored.
    """
    ds = split.dataset
    model = init_model(
        (ds.width, *cfg.architecture), cfg.activation, stream_rng(cfg.seed, INIT_STREAM)
    ).copy(COMPUTE_DTYPE)
    state = init_momentum_state(model, cfg.momentum)

    rows = ds.matrix
    trace = TrainingTrace()
    for epoch in range(cfg.n_epochs):
        started = time.perf_counter()
        generated = None
        if epoch == 0 or cfg.fresh_batch_per_epoch:
            key = (epoch,) if cfg.fresh_batch_per_epoch else ()
            batch = generated = generate_training_batch(
                split, cfg.train_batch_size, stream_rng(cfg.seed, PAIR_STREAM, *key)
            )
            plan = _step_plan(batch, cfg.minibatch_size, len(rows))
        epoch_loss = 0.0
        for s, start in enumerate(range(0, len(batch), cfg.minibatch_size)):
            step = slice(start, start + cfg.minibatch_size)
            similar = batch.similar[step]
            # np.take gathers rows in about half the time of rows[idx]
            distinct = np.take(rows, plan.rows[plan.bounds[s]:plan.bounds[s + 1]], axis=0)
            grads, loss_value = batch_gradients(
                model, plan.left[step], plan.right[step], similar, distinct, cfg.loss
            )
            # step on the per-pair mean so the step size is independent of
            # the minibatch size
            grads.scale(1.0 / len(similar))
            apply_update(model, grads, state, cfg.learning_rate)
            epoch_loss += loss_value
            trace.steps += 1
        trace.losses.append(epoch_loss / len(batch))
        trace.seconds.append(time.perf_counter() - started)
        if on_epoch is not None:
            on_epoch(epoch, model, trace.losses[-1], generated)
    return model, trace
