"""Training orchestration: pair batch, epoch loop, telemetry.

By default one pair batch is generated in the first epoch and swept
repeatedly, one optimizer step per `minibatch_size` consecutive pairs;
`fresh_batch_per_epoch` regenerates the batch every epoch instead. Each
step gathers its pairs' feature rows from the dataset matrix. Everything is
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


def run_training(
    split: ExperimentSplit,
    cfg: TrainingConfig,
    on_batch: Callable[[PairBatch], None] | None = None,
) -> tuple[SiameseModel, TrainingTrace]:
    """Train a twin network on `split`, whose excluded class is withheld.

    `on_batch` observes every generated pair batch, which is how exclusion
    audits and batch dumps hook in.
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
        if epoch == 0 or cfg.fresh_batch_per_epoch:
            key = (epoch,) if cfg.fresh_batch_per_epoch else ()
            batch = generate_training_batch(
                split, cfg.train_batch_size, stream_rng(cfg.seed, PAIR_STREAM, *key)
            )
            if on_batch is not None:
                on_batch(batch)
        epoch_loss = 0.0
        for start in range(0, len(batch), cfg.minibatch_size):
            step = slice(start, start + cfg.minibatch_size)
            similar = batch.similar[step]
            # np.take gathers rows in about half the time of rows[idx]
            grads, loss_value = batch_gradients(
                model, np.take(rows, batch.left_idx[step], axis=0),
                np.take(rows, batch.right_idx[step], axis=0), similar, cfg.loss,
            )
            # step on the per-pair mean so the step size is independent of
            # the minibatch size
            grads.scale(1.0 / len(similar))
            apply_update(model, grads, state, cfg.learning_rate)
            epoch_loss += loss_value
            trace.steps += 1
        trace.losses.append(epoch_loss / len(batch))
        trace.seconds.append(time.perf_counter() - started)
    return model, trace
