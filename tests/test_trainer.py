from __future__ import annotations

import math
import types

import numpy as np
import pytest

from oneshot_ids import TrainingConfig, prepare_experiment, run_training, trainer
from oneshot_ids.dataset import COMPUTE_DTYPE
from oneshot_ids.network import ConfigError, LossConfig, apply_update, checked_layers, init_model
from oneshot_ids.pairgen import generate_training_batch
from oneshot_ids.seeding import INIT_STREAM, PAIR_STREAM, stream_rng
from oneshot_ids.synthetic import make_raw

from conftest import batch_recorder
from test_network import unfused_gradients


@pytest.fixture(scope="module")
def small_experiment():
    raw = make_raw(n_classes=3, per_class=60, n_features=8, seed=2)
    return prepare_experiment(raw, "attack1", seed=4)


def quick_cfg(**overrides):
    base = dict(n_epochs=2, train_batch_size=120, minibatch_size=40, seed=4)
    base.update(overrides)
    return TrainingConfig(**base)


def test_default_config_values():
    cfg = TrainingConfig()
    assert cfg.train_batch_size == 30000
    assert cfg.test_batch_size == 30000
    assert cfg.n_epochs == 2000
    assert cfg.minibatch_size == 256
    assert cfg.fresh_batch_per_epoch is False
    assert cfg.loss.kind == "contrastive"
    assert cfg.loss.margin == 1.0
    assert cfg.architecture == (64, 32, 16)
    assert cfg.learning_rate == 0.01
    assert cfg.momentum == 0.9


def step_counter(monkeypatch) -> list:
    """A list that gets one entry per call of `trainer.batch_gradients`,
    the name the benchmark tracer wraps: one per optimizer step."""
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)

    real = trainer.batch_gradients
    monkeypatch.setattr(trainer, "batch_gradients", counted)
    return calls


class TestStepArithmetic:
    def test_single_step(self, small_experiment, monkeypatch):
        split = small_experiment
        cfg = quick_cfg(n_epochs=1, train_batch_size=100, minibatch_size=100)
        steps = step_counter(monkeypatch)
        _, trace = run_training(split, cfg)
        assert len(steps) == 1
        assert len(trace.losses) == 1

    def test_chunked_steps(self, small_experiment, monkeypatch):
        split = small_experiment
        cfg = quick_cfg(n_epochs=3, train_batch_size=100, minibatch_size=32)
        steps = step_counter(monkeypatch)
        _, trace = run_training(split, cfg)
        assert len(steps) == 4 * 3  # ceil(100/32) per epoch
        assert len(trace.losses) == 3

    def test_trace_epoch_count_and_timings(self, small_experiment):
        split = small_experiment
        _, trace = run_training(split, quick_cfg(n_epochs=5))
        assert len(trace.losses) == 5
        assert len(trace.seconds) == 5
        assert math.isfinite(trace.losses[-1])


class TestComputeDtype:
    def test_trained_model_is_float32(self, small_experiment):
        split = small_experiment
        model, _ = run_training(split, quick_cfg())
        arrays = model.weights + model.biases
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)

    def test_float32_rounds_the_float64_init_draws(self, small_experiment, monkeypatch):
        split = small_experiment
        cfg = quick_cfg()
        drawn = init_model(
            (split.dataset.width, *cfg.architecture), cfg.activation,
            stream_rng(cfg.seed, INIT_STREAM),
        )
        # without updates the returned weights are the initial ones
        monkeypatch.setattr(trainer, "apply_update", lambda *args: None)
        model, _ = run_training(split, cfg)
        for w64, w32 in zip(drawn.weights, model.weights):
            assert np.array_equal(w64.astype(np.float32), w32)


class TestDeterminism:
    def test_identical_runs(self, small_experiment):
        split = small_experiment
        m1, t1 = run_training(split, quick_cfg())
        m2, t2 = run_training(split, quick_cfg())
        assert t1.losses == t2.losses
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    def test_seed_changes_outcome(self, small_experiment):
        split = small_experiment
        m1, _ = run_training(split, quick_cfg(seed=4))
        m2, _ = run_training(split, quick_cfg(seed=5))
        assert not np.array_equal(m1.weights[0], m2.weights[0])


class TestValidation:
    def test_requires_three_classes(self):
        split = prepare_experiment(make_raw(n_classes=2, per_class=20, n_features=4), 1, seed=0)
        with pytest.raises(ValueError, match="at least 2 training classes, have 1: with fewer"):
            run_training(split, quick_cfg())

    def test_config_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError, match="n_epochs"):
            TrainingConfig(n_epochs=0)

    @pytest.mark.parametrize(
        "name, value, rule",
        [
            ("n_epochs", True, "a positive integer, got True"),
            ("n_epochs", 2.0, "a positive integer, got 2.0"),
            ("minibatch_size", 256.0, "a positive integer, got 256.0"),
            ("train_batch_size", 30000.0, "a positive integer, got 30000.0"),
            ("test_batch_size", 100.5, "a positive integer, got 100.5"),
            ("test_batch_size", "100", "a positive integer, got '100'"),
            ("seed", 1.0, "a non-negative integer, got 1.0"),
            ("seed", -1, "a non-negative integer, got -1"),
            ("seed", False, "a non-negative integer, got False"),
        ],
        ids=["epochs-bool", "epochs-float", "minibatch-float", "batch-float", "test-batch-float",
             "test-batch-string", "seed-float", "seed-negative", "seed-bool"],
    )
    def test_config_rejects_a_count_that_is_not_an_integer(self, name, value, rule):
        with pytest.raises(ConfigError, match=f"^{name} must be {rule}$") as info:
            TrainingConfig(**{name: value})
        assert info.value.fields == (name,)

    def test_numpy_integer_counts_accepted(self):
        counts = dict(n_epochs=np.int64(3), minibatch_size=np.int32(8), train_batch_size=np.int64(16),
                      test_batch_size=np.int64(40), seed=np.uint8(0))
        assert TrainingConfig(**counts).n_epochs == 3

    @pytest.mark.parametrize(
        "overrides, name",
        [
            ({"learning_rate": 0.0}, "learning_rate"),
            ({"learning_rate": -0.01}, "learning_rate"),
            ({"learning_rate": float("inf")}, "learning_rate"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"momentum": 1.0}, "momentum"),
            ({"momentum": -0.1}, "momentum"),
        ],
        ids=["lr-zero", "lr-negative", "lr-inf", "lr-nan", "momentum-one", "momentum-negative"],
    )
    def test_config_rejects_bad_step_settings(self, overrides, name):
        with pytest.raises(ValueError, match=name):
            TrainingConfig(**overrides)

    @pytest.mark.parametrize(
        "config, name, value, rule",
        [
            (TrainingConfig, "learning_rate", True, "a real number, got True"),
            (TrainingConfig, "learning_rate", "0.01", "a real number, got '0.01'"),
            (TrainingConfig, "momentum", False, "a real number, got False"),
            (TrainingConfig, "momentum", None, "a real number, got None"),
            (TrainingConfig, "fresh_batch_per_epoch", "false", "a bool, got 'false'"),
            (TrainingConfig, "fresh_batch_per_epoch", 1, "a bool, got 1"),
            (LossConfig, "margin", True, "a real number, got True"),
            (LossConfig, "margin", "1.0", "a real number, got '1.0'"),
            (LossConfig, "l2", True, "a real number, got True"),
            (LossConfig, "l2", "0", "a real number, got '0'"),
        ],
        ids=["lr-bool", "lr-string", "momentum-bool", "momentum-none", "fresh-string",
             "fresh-int", "margin-bool", "margin-string", "l2-bool", "l2-string"],
    )
    def test_config_rejects_a_value_of_the_wrong_type(self, config, name, value, rule):
        with pytest.raises(ConfigError, match=f"^{name} must be {rule}$") as info:
            config(**{name: value})
        assert info.value.fields == (name,)

    def test_numpy_reals_accepted(self):
        cfg = TrainingConfig(learning_rate=np.float32(0.5), momentum=np.int64(0),
                             loss=LossConfig(margin=np.float64(2.0), l2=np.int32(0)))
        assert cfg.learning_rate == 0.5 and cfg.loss.margin == 2.0

    @pytest.mark.parametrize(
        "widths",
        [(20.5, 64, 32, 16), ("64", True), (64.9, 32, 16), (True, 3, 2), (np.float64(8), 4)],
        ids=["float-input", "string-and-bool", "float-hidden", "bool", "numpy-float"],
    )
    def test_width_that_is_not_an_integer_rejected(self, widths):
        for build in (lambda: TrainingConfig(architecture=widths),
                      lambda: checked_layers(widths, "sigmoid"),
                      lambda: init_model(widths)):
            with pytest.raises(ConfigError, match="layer widths must be integers") as info:
                build()
            assert info.value.fields == ("architecture",)

    def test_empty_architecture_rejected(self):
        with pytest.raises(ConfigError, match=r"needs at least the embedding width, got \(\)") as info:
            TrainingConfig(architecture=())
        assert info.value.fields == ("architecture",)

    def test_numpy_integer_widths_accepted(self):
        widths = tuple(np.array([20, 8, 4]))
        sizes = checked_layers(widths, "sigmoid")
        assert sizes == (20, 8, 4) and all(type(s) is int for s in sizes)
        assert TrainingConfig(architecture=widths[1:]).architecture == widths[1:]

    def test_config_rejects_oversized_minibatch(self):
        with pytest.raises(ValueError, match="minibatch_size"):
            TrainingConfig(train_batch_size=100, minibatch_size=200)


class TestBatchUsage:
    def test_excluded_class_never_in_training_pairs(self, small_experiment):
        split = small_experiment
        ds = split.dataset
        seen = []
        run_training(split, quick_cfg(), batch_recorder(seen))
        assert len(seen) == 1
        excluded = set(np.flatnonzero(ds.labels == split.excluded_class).tolist())
        for batch in seen:
            used = set(batch.left_idx.tolist()) | set(batch.right_idx.tolist())
            assert not used & excluded

    def test_fresh_batch_per_epoch(self, small_experiment):
        split = small_experiment
        seen = []
        cfg = quick_cfg(n_epochs=3, fresh_batch_per_epoch=True)
        run_training(split, cfg, batch_recorder(seen))
        assert len(seen) == 3
        assert not np.array_equal(seen[0].left_idx, seen[1].left_idx)
        # regeneration is still deterministic
        seen2 = []
        run_training(split, cfg, batch_recorder(seen2))
        for b1, b2 in zip(seen, seen2):
            assert np.array_equal(b1.left_idx, b2.left_idx)

    @pytest.mark.parametrize("fresh", [False, True], ids=["fixed", "fresh"])
    def test_steps_take_minibatch_rows(self, small_experiment, monkeypatch, fresh):
        split = small_experiment
        cfg = quick_cfg(n_epochs=3, train_batch_size=100, minibatch_size=40,
                        fresh_batch_per_epoch=fresh)
        batches, steps = [], []

        def generate(*args):
            batches.append(generate_training_batch(*args))
            return batches[-1]

        def step(model, left, right, similar, rows, loss):
            steps.append((rows[left], rows[right], similar))
            return real_step(model, left, right, similar, rows, loss)

        real_step = trainer.batch_gradients
        monkeypatch.setattr(trainer, "generate_training_batch", generate)
        monkeypatch.setattr(trainer, "batch_gradients", step)
        run_training(split, cfg)

        # one draw for a fixed batch, one per epoch for fresh ones, each from
        # its own stream key
        keys = [(epoch,) for epoch in range(3)] if fresh else [()]
        for batch, key in zip(batches, keys, strict=True):
            want = generate_training_batch(split, 100, stream_rng(cfg.seed, PAIR_STREAM, *key))
            assert np.array_equal(batch.left_idx, want.left_idx)
            assert np.array_equal(batch.right_idx, want.right_idx)
        # each epoch steps over its batch in consecutive 40-pair slices
        epochs = batches if fresh else batches * 3
        assert [len(similar) for _, _, similar in steps] == [40, 40, 20] * 3
        matrix = split.dataset.matrix
        for epoch, batch in enumerate(epochs):
            taken = steps[3 * epoch:3 * epoch + 3]
            left, right, similar = (np.concatenate(part) for part in zip(*taken))
            assert np.array_equal(left, matrix[batch.left_idx])
            assert np.array_equal(right, matrix[batch.right_idx])
            assert np.array_equal(similar, batch.similar)


@pytest.fixture(scope="module")
def acceptance_split():
    """The acceptance suite's data and split (5 classes x 500 rows x 20
    features, attack2 withheld)."""
    raw = make_raw(n_classes=5, per_class=500, n_features=20, separation=4.0, seed=7)
    return prepare_experiment(raw, "attack2", seed=11)


def own_rows_training(split, cfg):
    """`run_training` for one fixed batch, each step by `unfused_gradients`
    on every pair's own copies of its rows; the model and the per-epoch
    losses."""
    ds = split.dataset
    model = init_model((ds.width, *cfg.architecture), cfg.activation,
                       stream_rng(cfg.seed, INIT_STREAM)).copy(COMPUTE_DTYPE)
    velocity = np.zeros_like(model.params)
    batch = generate_training_batch(split, cfg.train_batch_size, stream_rng(cfg.seed, PAIR_STREAM))
    losses = []
    for _ in range(cfg.n_epochs):
        total = 0.0
        for start in range(0, len(batch), cfg.minibatch_size):
            step = slice(start, start + cfg.minibatch_size)
            d_weights, d_biases, loss = unfused_gradients(
                model, (batch.left_idx[step], batch.right_idx[step], batch.similar[step], ds.matrix),
                cfg.loss,
            )
            grad = np.concatenate([a.ravel() for a in d_weights + d_biases])
            grad *= 1.0 / len(batch.similar[step])
            apply_update(model, grad, velocity, cfg.momentum, cfg.learning_rate)
            total += loss
        losses.append(total / len(batch))
    return model, losses


class TestStepPlan:
    """Each step's distinct rows and its pairs' positions among them, built
    once per generated batch."""

    @pytest.mark.parametrize("minibatch", [128, 256, 1000, 1024, 10000, 30000])
    def test_positions_give_back_the_batch(self, acceptance_split, minibatch):
        split = acceptance_split
        batch = generate_training_batch(split, 30000, stream_rng(11, PAIR_STREAM))
        plan = trainer._step_plan(batch, minibatch)
        assert len(plan) == -(-len(batch) // minibatch)
        # the class-balanced sampler repeats the small classes' rows
        assert sum(len(rows) for rows, *_ in plan) < 2 * len(batch)
        for s, (rows, left, right, similar) in enumerate(plan):
            step = slice(s * minibatch, (s + 1) * minibatch)
            assert np.all(np.diff(rows) > 0)      # distinct, ascending
            assert np.array_equal(rows[left], batch.left_idx[step])
            assert np.array_equal(rows[right], batch.right_idx[step])
            assert np.array_equal(similar, batch.similar[step])

    @pytest.mark.parametrize("fresh, plans", [(False, 1), (True, 4)], ids=["fixed", "fresh"])
    def test_built_once_per_generated_batch(self, small_experiment, monkeypatch, fresh, plans):
        built = []

        def counted(*args):
            built.append(args[0])
            return step_plan(*args)

        step_plan = trainer._step_plan
        monkeypatch.setattr(trainer, "_step_plan", counted)
        seen = []
        run_training(small_experiment, quick_cfg(n_epochs=4, fresh_batch_per_epoch=fresh),
                     batch_recorder(seen))
        assert len(built) == plans
        assert all(a is b for a, b in zip(built, seen, strict=True))

    def test_training_matches_every_pair_on_its_own_rows(self, acceptance_split, monkeypatch):
        # 2 epochs of 8 steps; only float32 rounding differs
        cfg = TrainingConfig(n_epochs=2, train_batch_size=2048, minibatch_size=256, seed=11)
        steps = step_counter(monkeypatch)
        model, trace = run_training(acceptance_split, cfg)
        ref_model, ref_losses = own_rows_training(acceptance_split, cfg)
        assert len(steps) == 16
        np.testing.assert_allclose(trace.losses, ref_losses, rtol=1e-5)
        np.testing.assert_allclose(model.params, ref_model.params, rtol=1e-5, atol=1e-6)


class TestLossCurve:
    def test_smoothed_loss_non_increasing(self, small_experiment):
        split = small_experiment
        cfg = TrainingConfig(n_epochs=60, train_batch_size=400, minibatch_size=64, seed=4)
        _, trace = run_training(split, cfg)
        smooth = np.convolve(np.array(trace.losses), np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smooth) <= 1e-12)
        assert smooth[-1] < smooth[0]

    def test_trace_csv(self, small_experiment, tmp_path):
        split = small_experiment
        _, trace = run_training(split, quick_cfg(n_epochs=3))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,loss,seconds"
        assert len(lines) == 4
        epoch, loss, secs = lines[1].split(",")
        assert epoch == "1"
        assert float(loss) == pytest.approx(trace.losses[0])


# the settings the hook is checked at: a fixture and the config on it
HOOK_SETTINGS = {
    "small": ("small_experiment", dict(n_epochs=3, train_batch_size=120, minibatch_size=40,
                                       seed=4)),
    "acceptance": ("acceptance_split", dict(n_epochs=3, seed=11)),
}


class TestEpochHook:
    """`on_epoch(epoch, model, loss, batch)` runs once after each epoch's
    steps and changes nothing about training."""

    @pytest.fixture(params=[(name, fresh) for name in HOOK_SETTINGS for fresh in (False, True)],
                    ids=lambda p: f"{p[0]}-{'fresh' if p[1] else 'fixed'}")
    def hooked(self, request):
        """(split, cfg, calls, model, trace) of a run whose hook records its
        arguments, and a copy of the parameters, at each call."""
        name, overrides = HOOK_SETTINGS[request.param[0]]
        split = request.getfixturevalue(name)
        cfg = TrainingConfig(fresh_batch_per_epoch=request.param[1], **overrides)
        calls = []
        model, trace = run_training(
            split, cfg, lambda *args: calls.append((*args, args[1].params.copy()))
        )
        return split, cfg, calls, model, trace

    def test_called_once_per_epoch_with_the_returned_model(self, hooked):
        _, cfg, calls, model, trace = hooked
        assert [epoch for epoch, *_ in calls] == list(range(cfg.n_epochs))
        assert all(seen is model for _, seen, *_ in calls)
        # the last call comes after the last step
        assert np.array_equal(calls[-1][4], model.params)
        assert [loss for _, _, loss, *_ in calls] == trace.losses

    def test_batch_is_the_one_generated_that_epoch(self, hooked):
        split, cfg, calls, *_ = hooked
        fresh = cfg.fresh_batch_per_epoch
        generated = [epoch for epoch, _, _, batch, _ in calls if batch is not None]
        assert generated == (list(range(cfg.n_epochs)) if fresh else [0])
        for epoch in generated:
            key = (epoch,) if fresh else ()
            want = generate_training_batch(split, cfg.train_batch_size,
                                           stream_rng(cfg.seed, PAIR_STREAM, *key))
            batch = calls[epoch][3]
            assert np.array_equal(batch.left_idx, want.left_idx)
            assert np.array_equal(batch.right_idx, want.right_idx)
            assert np.array_equal(batch.similar, want.similar)

    def test_recording_changes_no_bit(self, hooked):
        split, cfg, _, model, trace = hooked
        plain_model, plain_trace = run_training(split, cfg)
        assert model.params.tobytes() == plain_model.params.tobytes()
        assert trace.losses == plain_trace.losses

    def test_hook_time_is_outside_the_epoch_seconds(self, small_experiment, monkeypatch):
        # a clock that only the hook moves: every epoch then takes 0 s
        now = [0.0]
        monkeypatch.setattr(trainer, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))

        def slow(*args):
            now[0] += 100.0

        _, trace = run_training(small_experiment, quick_cfg(n_epochs=3), slow)
        assert trace.seconds == [0.0, 0.0, 0.0]

    def test_failing_epoch_is_not_reported(self, small_experiment, monkeypatch):
        def fail(*args):
            raise FloatingPointError("step failed")

        monkeypatch.setattr(trainer, "batch_gradients", fail)
        calls = []
        with pytest.raises(FloatingPointError):
            run_training(small_experiment, quick_cfg(), lambda *args: calls.append(args))
        assert calls == []
