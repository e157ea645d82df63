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

from .dataset import COMPUTE_DTYPE, ExperimentSplit, is_integer, write_csv
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
            value = getattr(self, name)
            if not is_integer(value) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}", name)
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}", "seed")
        if self.minibatch_size > self.train_batch_size:
            raise ConfigError("minibatch_size cannot exceed train_batch_size",
                              "minibatch_size", "train_batch_size")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}",
                              "learning_rate")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum!r}", "momentum")
        if not self.architecture:
            raise ConfigError("architecture needs at least the embedding width, "
                              f"got {self.architecture!r}", "architecture")
        checked_layers(self.architecture, self.activation)


@dataclass
class TrainingTrace:
    """Per-epoch mean pair loss and wall-clock seconds."""

    losses: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        epochs = enumerate(zip(self.losses, self.seconds), start=1)
        write_csv(path, [("epoch", "loss", "seconds"),
                         *((epoch, loss, f"{secs:.6f}") for epoch, (loss, secs) in epochs)])


def _step_plan(batch: PairBatch, minibatch_size: int) -> list[tuple[np.ndarray, ...]]:
    """One `(rows, left, right, similar)` per step of `minibatch_size`
    consecutive pairs of `batch`: the step's distinct dataset rows in
    ascending order, each pair's left and right rows as positions among
    them, and the pairs' similarity labels."""
    plan = []
    for start in range(0, len(batch), minibatch_size):
        step = slice(start, start + minibatch_size)
        rows, positions = np.unique(
            np.concatenate((batch.left_idx[step], batch.right_idx[step])), return_inverse=True
        )
        plan.append((rows, *positions.reshape(2, -1), batch.similar[step]))
    return plan


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
            plan = _step_plan(batch, cfg.minibatch_size)
        epoch_loss = 0.0
        for step_rows, left, right, similar in plan:
            # np.take gathers rows in about half the time of rows[idx]
            distinct = np.take(rows, step_rows, axis=0)
            grads, loss_value = batch_gradients(model, left, right, similar, distinct, cfg.loss)
            # step on the per-pair mean so the step size is independent of
            # the minibatch size
            grads.scale(1.0 / len(similar))
            apply_update(model, grads, state, cfg.learning_rate)
            epoch_loss += loss_value
        trace.losses.append(epoch_loss / len(batch))
        trace.seconds.append(time.perf_counter() - started)
        if on_epoch is not None:
            on_epoch(epoch, model, trace.losses[-1], generated)
    return model, trace
