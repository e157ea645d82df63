from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oneshot_ids import network
from oneshot_ids.network import (
    CONTRASTIVE,
    REGULARIZED_LOG,
    LossConfig,
    SiameseModel,
    _pair_terms,
    apply_update,
    batch_gradients,
    embed,
    init_model,
    load_model,
    save_model,
)


def forward_oracle(model, x):
    """Straight-line reimplementation of the forward pass (pure Python)."""
    a = list(map(float, x))
    for k in range(model.n_layers):
        w, b = model.weights[k], model.biases[k]
        z = []
        for j in range(w.shape[1]):
            acc = float(b[j])
            for i in range(w.shape[0]):
                acc += a[i] * float(w[i, j])
            z.append(acc)
        if k == model.n_layers - 1:
            a = z
        elif model.activation == "relu":
            a = [max(v, 0.0) for v in z]
        elif model.activation == "sigmoid":
            a = [1.0 / (1.0 + math.exp(-v)) for v in z]
        elif model.activation == "tanh":
            a = [math.tanh(v) for v in z]
        else:
            a = z
    return np.array(a)


def make_batch(x1, x2, similar):
    """(left, right, similar, rows) step arguments in which row k of x1
    pairs with row k of x2: `rows` stacks x1 on x2, so no row is shared."""
    x1, x2 = np.atleast_2d(x1), np.atleast_2d(x2)
    left, right = np.arange(len(x1)), len(x1) + np.arange(len(x2))
    return left, right, np.asarray(similar, dtype=bool), np.concatenate((x1, x2))


def random_rows(rng, width, n_pairs):
    """(x1, x2, similar): the feature rows and targets of n_pairs pairs."""
    x1 = rng.random((n_pairs, width))
    x2 = rng.random((n_pairs, width))
    similar = [rng.random() < 0.5 for _ in range(n_pairs)]
    return x1, x2, np.asarray(similar, dtype=bool)


def random_batch(rng, width, n_pairs):
    return make_batch(*random_rows(rng, width, n_pairs))


def repeated_rows_batch(rng, width):
    """Step arguments over 5 distinct rows in which rows repeat: row 0 is in
    five pairs, on the left of three and the right of two; row 3 is on both
    sides of different pairs; one pair joins row 4 to itself."""
    left = np.array([0, 0, 1, 2, 3, 0, 4, 1])
    right = np.array([1, 2, 0, 3, 0, 4, 4, 3])
    similar = np.array([True, False, False, True, False, True, False, True])
    return left, right, similar, rng.random((5, width))


def pair_losses(d, similar, **loss):
    """Per-pair losses from `_pair_terms` at distances d."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    y = np.atleast_1d(np.asarray(similar, dtype=float))
    return _pair_terms(d, y, LossConfig(**loss))[0]


def l2_penalty(model, l2):
    """The regularized-log batch penalty: l2 times the sum of squared weights."""
    return l2 * sum(float(np.sum(np.square(w, dtype=np.float64))) for w in model.weights)


def log_loss(s, similar, l2, model):
    """Regularized log batch loss at mapped similarities s, i.e. d = -ln s."""
    with np.errstate(divide="ignore"):
        d = -np.log(np.atleast_1d(np.asarray(s, dtype=float)))
    losses = pair_losses(d, similar, kind=REGULARIZED_LOG, l2=l2)
    return float(np.sum(losses) + l2_penalty(model, l2))


def contrastive_penalty(d, similar, margin):
    """What a contrastive `batch_gradients` step, its L2 coefficient set,
    adds to the sum of its pair losses, on pairs at distances d: an identity
    model embeds each pair's rows (0, 0) and (d, 0)."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    similar = np.atleast_1d(np.asarray(similar, dtype=bool))
    cfg = LossConfig(margin=margin, l2=0.1)
    right = np.stack([d, np.zeros_like(d)], axis=1)
    step_loss = batch_gradients(identity_model(2), *make_batch(0.0 * right, right, similar), cfg)[1]
    return step_loss - float(np.sum(_pair_terms(d, similar, cfg)[0]))


def grad_layers(grad, model):
    """The per-layer weight and bias gradients: views into the flat `grad`."""
    return network._views(grad, model.layer_sizes)


# The unfused step, kept as the reference for the distinct-row step: one
# forward trace and one backprop per twin over every pair's own copy of its
# rows, each activation derivative recomputed from its pre-activation.
_REFERENCE_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": (
        lambda z: 1.0 / (1.0 + np.exp(-z)),
        lambda z: (s := 1.0 / (1.0 + np.exp(-z))) * (1.0 - s),
    ),
    "linear": (lambda z: z, np.ones_like),
}


def unfused_gradients(model, batch, loss_cfg):
    """Weight gradients, bias gradients and batch loss, one twin at a time."""
    act_fn, act_deriv = _REFERENCE_ACTIVATIONS[model.activation]
    d_weights = [np.zeros_like(w) for w in model.weights]
    d_biases = [np.zeros_like(b) for b in model.biases]

    def trace(x):
        acts, pres = [x], []
        for k, (w, b) in enumerate(zip(model.weights, model.biases)):
            pres.append(acts[-1] @ w + b)
            acts.append(pres[-1] if k == model.n_layers - 1 else act_fn(pres[-1]))
        return acts, pres

    def backprop(acts, pres, upstream):
        delta = upstream
        for k in range(model.n_layers - 1, -1, -1):
            d_weights[k] += acts[k].T @ delta
            d_biases[k] += delta.sum(axis=0)
            if k > 0:
                delta = (delta @ model.weights[k].T) * act_deriv(pres[k - 1])

    left, right, similar, rows = batch
    acts1, pres1 = trace(rows[left])
    acts2, pres2 = trace(rows[right])
    diff = acts1[-1] - acts2[-1]
    losses, coeff = _pair_terms(np.linalg.norm(diff, axis=1), similar.astype(float), loss_cfg)
    upstream = coeff[:, None] * diff
    backprop(acts1, pres1, upstream)
    backprop(acts2, pres2, -upstream)
    penalty = 0.0
    if loss_cfg.kind == REGULARIZED_LOG:
        penalty = l2_penalty(model, loss_cfg.l2)
        for k, w in enumerate(model.weights):
            d_weights[k] += 2.0 * loss_cfg.l2 * w
    return d_weights, d_biases, float(np.sum(losses) + penalty)


def fd_gradients(model, batch, loss_cfg, step=1e-5):
    """Central finite differences of the batch loss over every parameter."""
    grads_w, grads_b = [], []
    for arrays, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for arr in arrays:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = batch_gradients(model, *batch, loss_cfg)[1]
                arr[idx] = orig - step
                down = batch_gradients(model, *batch, loss_cfg)[1]
                arr[idx] = orig
                g[idx] = (up - down) / (2.0 * step)
            grads.append(g)
    return grads_w, grads_b


def max_relative_error(analytic, numeric):
    """Componentwise |a-f|/max(|a|,|f|); components below the central-difference
    noise floor (~1e-7 absolute for these loss magnitudes) are skipped."""
    worst = 0.0
    for a, f in zip(analytic, numeric):
        scale = np.maximum(np.abs(a), np.abs(f))
        mask = scale > 1e-7
        if np.any(mask):
            worst = max(worst, float(np.max(np.abs(a - f)[mask] / scale[mask])))
    return worst


def distance(model, x1, x2):
    """Euclidean distance between the twin embeddings of x1 and x2."""
    return float(np.linalg.norm(embed(model, x1[None]) - embed(model, x2[None])))


def identity_model(width):
    return SiameseModel(
        (width, width), [np.eye(width)], [np.zeros(width)], activation="linear"
    )


class TestInit:
    def test_shapes_chain(self):
        model = init_model([118, 64, 32, 16], rng=0)
        assert [w.shape for w in model.weights] == [(118, 64), (64, 32), (32, 16)]
        assert [b.shape for b in model.biases] == [(64,), (32,), (16,)]

    def test_single_width_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            init_model([5])

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            init_model([5, 0, 3])

    def test_deterministic(self):
        m1 = init_model([7, 5, 3], rng=123)
        m2 = init_model([7, 5, 3], rng=123)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)

    def test_scaled_uniform_bounds_and_zero_biases(self):
        model = init_model([40, 20], rng=5)
        bound = np.sqrt(6.0 / 60.0)
        assert np.all(np.abs(model.weights[0]) <= bound)
        assert model.weights[0].std() > bound / 4  # actually spread out
        assert np.all(model.biases[0] == 0.0)

    def test_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            init_model([3, 2], activation="swish")

    @pytest.mark.parametrize(
        "weights, biases, activation, message",
        [
            ([(4, 3), (3, 2)], [(3,), (2,)], "softplus", "unknown activation 'softplus'"),
            ([(3, 3), (3, 2)], [(3,), (2,)], "sigmoid", r"layer 0: weight \(3, 3\)"),
            ([(4, 3), (3, 2)], [(3,), (3,)], "sigmoid", r"layer 1: .* bias \(3,\)"),
            ([(4, 3)], [(3,)], "sigmoid", "need 2 weights and biases, got 1 and 1"),
        ],
        ids=["activation", "weight-rows", "bias-width", "layer-count"],
    )
    def test_model_checks_itself(self, weights, biases, activation, message):
        with pytest.raises(ValueError, match=message):
            SiameseModel(
                (4, 3, 2), [np.zeros(w) for w in weights], [np.zeros(b) for b in biases],
                activation,
            )


class TestForward:
    def test_zero_model_embeds_to_zero(self):
        model = SiameseModel((4, 3), [np.zeros((4, 3))], [np.zeros(3)], "sigmoid")
        assert np.array_equal(embed(model, np.ones((1, 4))), np.zeros((1, 3)))

    def test_identity_layer_is_identity(self):
        model = identity_model(3)
        x = np.array([0.3, -1.2, 4.0])
        assert np.array_equal(embed(model, x[None]), x[None])

    @pytest.mark.parametrize("activation", ["relu", "sigmoid", "tanh"])
    def test_matches_hand_rolled_oracle(self, activation, rng):
        model = init_model([6, 5, 4, 3], activation=activation, rng=17)
        for _ in range(5):
            x = rng.uniform(-1, 1, size=6)
            np.testing.assert_allclose(embed(model, x[None])[0], forward_oracle(model, x), rtol=1e-12)

    def test_batched_equals_single(self, rng):
        model = init_model([5, 4, 2], rng=3)
        xs = rng.random((7, 5))
        batched = embed(model, xs)
        for k in range(7):
            np.testing.assert_allclose(batched[k], embed(model, xs[k][None])[0], rtol=1e-12)

    def test_width_mismatch(self):
        model = init_model([5, 3], rng=0)
        with pytest.raises(ValueError, match="width"):
            embed(model, np.ones((1, 4)))

    def test_single_vector_rejected(self):
        model = init_model([5, 3], rng=0)
        with pytest.raises(ValueError, match=r"shape \(5,\) is not a block of rows"):
            embed(model, np.ones(5))


class TestDistance:
    def test_identical_inputs_zero(self, rng):
        model = init_model([6, 4, 2], rng=7)
        x = rng.random(6)
        assert distance(model, x, x) == 0.0

    def test_3_4_5_triangle(self):
        model = identity_model(2)
        assert distance(model, np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_symmetry_exact(self, rng):
        model = init_model([6, 4, 3], rng=2)
        x1, x2 = rng.random(6), rng.random(6)
        assert distance(model, x1, x2) == distance(model, x2, x1)

    def test_matches_forward_oracle(self, rng):
        model = init_model([5, 4, 3], rng=9)
        x1, x2 = rng.random(5), rng.random(5)
        expected = math.sqrt(
            sum((a - b) ** 2 for a, b in zip(forward_oracle(model, x1), forward_oracle(model, x2)))
        )
        assert distance(model, x1, x2) == pytest.approx(expected, rel=1e-12)

    def test_triangle_inequality(self, rng):
        model = init_model([4, 3, 2], rng=21)
        for _ in range(20):
            a, b, c = rng.random(4), rng.random(4), rng.random(4)
            assert distance(model, a, c) <= distance(model, a, b) + distance(model, b, c) + 1e-12

    def test_width_mismatch(self):
        model = init_model([5, 3], rng=0)
        with pytest.raises(ValueError, match="width"):
            distance(model, np.ones(5), np.ones(6))


class TestContrastiveLoss:
    def test_similar_zero_distance(self):
        losses = pair_losses(0.0, True)
        assert losses[0] == 0.0

    def test_dissimilar_beyond_margin(self):
        losses = pair_losses(1.5, False, margin=1.0)
        assert losses[0] == 0.0

    def test_dissimilar_inside_margin(self):
        losses = pair_losses(0.4, False, margin=1.0)
        assert losses[0] == pytest.approx(0.36)

    @given(
        d=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
        similar=st.booleans(),
        margin=st.floats(0.01, 5.0),
    )
    def test_nonnegative_and_zero_set(self, d, similar, margin):
        value = pair_losses(d, similar, margin=margin)[0]
        assert contrastive_penalty(d, similar, margin) == 0.0
        assert value >= 0.0
        if (similar and d == 0.0) or (not similar and d >= margin):
            assert value == 0.0
        elif similar or d < margin:
            assert value > 0.0

    def test_vectorized(self):
        d = np.array([0.0, 0.4, 2.0])
        t = np.array([1.0, 0.0, 0.0])
        losses = pair_losses(d, t, margin=1.0)
        np.testing.assert_allclose(losses, [0.0, 0.36, 0.0])

    def test_margin_validation(self):
        with pytest.raises(ValueError, match="margin"):
            LossConfig(kind=CONTRASTIVE, margin=0.0)


class TestRegularizedLogLoss:
    def test_perfect_similar_prediction(self):
        model = init_model([3, 2], rng=0)
        value = log_loss(1.0 - 1e-12, True, l2=0.0, model=model)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_half_similarity_is_log2_per_pair(self):
        model = init_model([3, 2], rng=0)
        for similar in (True, False):
            assert log_loss(0.5, similar, 0.0, model) == pytest.approx(math.log(2))
        both = log_loss([0.5, 0.5], [True, False], 0.0, model)
        assert both == pytest.approx(2 * math.log(2))

    def test_zero_weights_no_penalty(self):
        model = SiameseModel((3, 2), [np.zeros((3, 2))], [np.zeros(2)], "sigmoid")
        assert log_loss(0.5, True, l2=5.0, model=model) == pytest.approx(math.log(2))
        # both rows embed to the same point, so the pair's loss is -ln(1 - 1e-12)
        step = batch_gradients(model, *make_batch(np.zeros(3), np.ones(3), [True]),
                               LossConfig(kind=REGULARIZED_LOG, l2=5.0))[1]
        assert step == pytest.approx(0.0, abs=1e-9)

    def test_penalty_added_once(self):
        model = identity_model(2)  # sum of squared weights = 2
        batch = make_batch(np.zeros(2), np.array([math.log(2), 0.0]), [True])  # d = ln 2
        value = batch_gradients(model, *batch, LossConfig(kind=REGULARIZED_LOG, l2=0.1))[1]
        assert value == pytest.approx(math.log(2) + 0.2)

    def test_boundary_values_clamped_finite(self):
        model = init_model([3, 2], rng=0)
        assert np.isfinite(log_loss(0.0, True, 0.0, model))
        assert np.isfinite(log_loss(1.0, False, 0.0, model))

    def test_kind_validation(self):
        with pytest.raises(ValueError, match="loss kind"):
            LossConfig(kind="hinge")

    def test_negative_l2_rejected(self):
        with pytest.raises(ValueError, match="l2"):
            LossConfig(l2=-0.1)


class TestGradients:
    def test_flat_region_zero_gradients(self):
        model = identity_model(2)
        batch = make_batch(
            np.array([[0.0, 0.0], [5.0, 0.0]]),
            np.array([[3.0, 4.0], [0.0, 0.0]]),
            [False, False],
        )  # distances 5 > margin 1
        grad, loss = batch_gradients(model, *batch, LossConfig(kind=CONTRASTIVE, margin=1.0))
        assert loss == 0.0
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("kind", [CONTRASTIVE, REGULARIZED_LOG])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
    def test_matches_finite_differences(self, kind, activation):
        rng = np.random.default_rng(8)
        model = init_model([3, 4, 2], activation=activation, rng=rng)
        batch = random_batch(rng, 3, 8)
        cfg = LossConfig(kind=kind)
        d_weights, d_biases = grad_layers(batch_gradients(model, *batch, cfg)[0], model)
        fd_w, fd_b = fd_gradients(model, batch, cfg)
        assert max_relative_error(d_weights, fd_w) < 1e-4
        assert max_relative_error(d_biases, fd_b) < 1e-4

    @pytest.mark.parametrize("kind", [CONTRASTIVE, REGULARIZED_LOG])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh", "linear"])
    def test_matches_unfused_reference(self, kind, activation):
        # Only the float64 summation order differs from the reference, so
        # the tolerance is 1e-12 relative. It is taken against the largest
        # component: the output-layer bias gradient is a sum whose twin
        # halves cancel, exactly 0 in one order and ~1e-15 in another.
        rng = np.random.default_rng(31)
        model = init_model([5, 6, 4, 3], activation=activation, rng=rng)
        batch = random_batch(rng, 5, 40)
        cfg = LossConfig(kind=kind)
        grad, loss = batch_gradients(model, *batch, cfg)
        ref_w, ref_b, ref_loss = unfused_gradients(model, batch, cfg)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        scale = max(float(np.max(np.abs(g))) for g in ref_w + ref_b)
        d_weights, d_biases = grad_layers(grad, model)
        for got, want in zip(d_weights + d_biases, ref_w + ref_b):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)

    @pytest.mark.parametrize("kind", [CONTRASTIVE, REGULARIZED_LOG])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
    def test_repeated_rows_match_finite_differences(self, kind, activation):
        rng = np.random.default_rng(17)
        model = init_model([3, 4, 2], activation=activation, rng=rng)
        batch = repeated_rows_batch(rng, 3)
        cfg = LossConfig(kind=kind)
        d_weights, d_biases = grad_layers(batch_gradients(model, *batch, cfg)[0], model)
        fd_w, fd_b = fd_gradients(model, batch, cfg)
        assert max_relative_error(d_weights, fd_w) < 1e-4
        assert max_relative_error(d_biases, fd_b) < 1e-4

    @pytest.mark.parametrize("kind", [CONTRASTIVE, REGULARIZED_LOG])
    def test_repeated_rows_match_every_pair_on_its_own_rows(self, kind):
        # the same step with each pair's rows copied out, so nothing is
        # shared: only the float64 summation order differs
        rng = np.random.default_rng(23)
        model = init_model([3, 5, 2], rng=rng)
        left, right, similar, rows = repeated_rows_batch(rng, 3)
        cfg = LossConfig(kind=kind)
        grad, loss = batch_gradients(model, left, right, similar, rows, cfg)
        copied, copied_loss = batch_gradients(
            model, *make_batch(rows[left], rows[right], similar), cfg
        )
        ref_w, ref_b, ref_loss = unfused_gradients(model, (left, right, similar, rows), cfg)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12)
        np.testing.assert_allclose(copied_loss, ref_loss, rtol=1e-12)
        scale = max(float(np.max(np.abs(g))) for g in ref_w + ref_b)
        for got, other, want in zip(sum(grad_layers(grad, model), []),
                                    sum(grad_layers(copied, model), []), ref_w + ref_b):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(other, want, rtol=1e-12, atol=1e-12 * scale)

    def test_each_row_embedded_once(self, monkeypatch):
        traced = []
        real = network._forward_trace

        def recording(model, x):
            traced.append(len(x))
            return real(model, x)

        monkeypatch.setattr(network, "_forward_trace", recording)
        rng = np.random.default_rng(1)
        model = init_model([3, 4, 2], rng=rng)
        batch = repeated_rows_batch(rng, 3)
        batch_gradients(model, *batch, LossConfig())
        assert traced == [5]      # 8 pairs over 5 distinct rows

    def test_one_trace_and_one_backprop_per_step(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(network, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper

        for name in ("_forward_trace", "_backprop"):
            monkeypatch.setattr(network, name, counted(name))
        rng = np.random.default_rng(5)
        model = init_model([4, 3, 2], rng=rng)
        batch_gradients(model, *random_batch(rng, 4, 6), LossConfig())
        assert calls == ["_forward_trace", "_backprop"]

    def test_duplicated_batch_doubles_everything(self):
        rng = np.random.default_rng(4)
        model = init_model([4, 3, 2], rng=rng)
        x1, x2, similar = random_rows(rng, 4, 6)
        doubled = make_batch(np.vstack([x1, x1]), np.vstack([x2, x2]), np.tile(similar, 2))
        cfg = LossConfig(kind=CONTRASTIVE)
        g1, l1 = batch_gradients(model, *make_batch(x1, x2, similar), cfg)
        g2, l2 = batch_gradients(model, *doubled, cfg)
        assert l2 == pytest.approx(2 * l1, rel=1e-12)
        for a, b in zip(grad_layers(g1, model)[0], grad_layers(g2, model)[0]):
            np.testing.assert_allclose(b, 2 * a, rtol=1e-10, atol=1e-14)

    def test_twin_swap_symmetry(self):
        rng = np.random.default_rng(12)
        model = init_model([4, 3, 2], rng=rng)
        x1, x2, similar = random_rows(rng, 4, 6)
        cfg = LossConfig(kind=CONTRASTIVE)
        g1, l1 = batch_gradients(model, *make_batch(x1, x2, similar), cfg)
        g2, l2 = batch_gradients(model, *make_batch(x2, x1, similar), cfg)
        assert l1 == pytest.approx(l2, rel=1e-12)
        for a, b in zip(grad_layers(g1, model)[0], grad_layers(g2, model)[0]):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)

    def test_empty_batch_rejected(self):
        model = init_model([3, 2], rng=0)
        batch = make_batch(np.zeros((0, 3)), np.zeros((0, 3)), [])
        with pytest.raises(ValueError, match="empty"):
            batch_gradients(model, *batch, LossConfig())

    @pytest.mark.parametrize("n_right, n_similar", [(5, 6), (6, 5), (1, 6), (6, 1)])
    def test_mismatched_lengths_rejected(self, n_right, n_similar):
        # one right row or one target would otherwise broadcast over every pair
        rng = np.random.default_rng(2)
        model = init_model([4, 3, 2], rng=rng)
        left, right, similar, rows = random_batch(rng, 4, 6)
        with pytest.raises(ValueError, match="6 left rows"):
            batch_gradients(model, left, right[:n_right], similar[:n_similar], rows, LossConfig())

    @pytest.mark.parametrize("kind", [CONTRASTIVE, REGULARIZED_LOG])
    def test_pair_terms_read_bool_mask_as_float_targets(self, kind):
        d = np.array([0.0, 0.3, 0.9, 1.7, 0.3])
        similar = np.array([True, False, True, False, True])
        model = init_model([3, 2], rng=0)
        cfg = LossConfig(kind=kind)
        from_mask = _pair_terms(d, similar, cfg)
        from_float = _pair_terms(d, similar.astype(float), cfg)
        for got, want in zip(from_mask, from_float):
            assert np.array_equal(got, want)

    def test_overflow_names_layer(self):
        model = SiameseModel(
            (2, 2, 2),
            [np.full((2, 2), 1e200), np.full((2, 2), 1e200)],
            [np.zeros(2), np.zeros(2)],
            activation="linear",
        )
        batch = make_batch(np.ones((1, 2)), np.zeros((1, 2)), [True])
        with pytest.raises(FloatingPointError, match="numerical overflow in layer 1"):
            batch_gradients(model, *batch, LossConfig())


def weighted_contrastive_terms(d, y, margin):
    """The contrastive losses and coefficients as the y-weighted sums
    y d^2 + (1-y) slack^2 and 2y - 2(1-y) slack/d, in float64."""
    slack = np.maximum(margin - d, 0.0)
    losses = y * d**2 + (1.0 - y) * slack**2
    with np.errstate(divide="ignore", invalid="ignore"):
        repel = np.where(d > 0.0, slack / d, 0.0)
    return losses, 2.0 * y - 2.0 * (1.0 - y) * repel


class TestStepValues:
    """The step's own arithmetic against the straightforward formulas, bit
    for bit, zero signs included."""

    def test_contrastive_terms_equal_the_weighted_formula(self):
        rng = np.random.default_rng(21)
        # zero, inside and beyond the margin, on it, and float32-sized values
        d = np.concatenate([[0.0, 0.0, 1.0, 1.0, 1e-30, 7.5], rng.random(200) * 2.0])
        similar = np.arange(len(d)) % 2 == 0
        losses, coeff = _pair_terms(d, similar, LossConfig(margin=1.0))
        want_losses, want_coeff = weighted_contrastive_terms(d, similar.astype(float), 1.0)
        assert contrastive_penalty(d, similar, 1.0) == 0.0
        assert losses.tobytes() == want_losses.tobytes()
        assert coeff.tobytes() == want_coeff.tobytes()

    @pytest.mark.parametrize("activation", ["sigmoid", "relu"])
    def test_loss_reads_the_norm_of_the_embedding_difference(self, activation):
        rng = np.random.default_rng(9)
        model = init_model([6, 5, 3], activation=activation, rng=rng).copy(np.float32)
        x1, x2, similar = random_rows(rng, 6, 50)
        _, loss = batch_gradients(model, *make_batch(x1, x2, similar), LossConfig())
        d = np.linalg.norm(embed(model, x1) - embed(model, x2), axis=1)
        want, _ = weighted_contrastive_terms(d.astype(np.float64), similar.astype(float), 1.0)
        assert loss == float(np.sum(want))


class TestFlatParameters:
    """Parameters, gradients and velocity are one vector each; the per-layer
    arrays are views into it."""

    def test_layer_arrays_are_views_of_the_parameter_vector(self):
        model = init_model([5, 4, 3], rng=2).copy(np.float32)
        assert model.params.shape == (5 * 4 + 4 * 3 + 4 + 3,)
        for a in model.weights + model.biases:
            assert a.dtype == np.float32 and np.shares_memory(a, model.params)
        assert np.array_equal(
            model.params, np.concatenate([a.ravel() for a in model.weights + model.biases])
        )

    def test_update_reaches_embed_and_a_copy_stays_put(self):
        rng = np.random.default_rng(6)
        model = init_model([5, 4, 3], rng=rng).copy(np.float32)
        kept = model.copy()
        assert not np.shares_memory(kept.params, model.params)
        x = rng.random((8, 5))
        before = embed(model, x)
        grad, _ = batch_gradients(model, *random_batch(rng, 5, 12), LossConfig())
        apply_update(model, grad, np.zeros_like(model.params), 0.9, learning_rate=0.5)
        moved = SiameseModel(
            model.layer_sizes, [w.copy() for w in model.weights], [b.copy() for b in model.biases],
            model.activation,
        )
        assert not np.array_equal(embed(model, x), before)
        assert np.array_equal(embed(model, x), embed(moved, x))
        assert np.array_equal(embed(kept, x), before)

    def test_given_arrays_are_copied_in(self):
        w, b = np.ones((2, 2)), np.zeros(2)
        model = SiameseModel((2, 2), [w], [b], "linear")
        model.params[:] = 7.0
        assert np.all(w == 1.0) and np.all(b == 0.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_update_equals_the_per_array_formula(self, dtype):
        rng = np.random.default_rng(14)
        model = init_model([6, 5, 4, 3], rng=rng).copy(dtype)
        flat_velocity = np.zeros_like(model.params)
        params = [a.copy() for a in model.weights + model.biases]
        velocity = [np.zeros_like(a) for a in params]
        for _ in range(3):
            grad, _ = batch_gradients(model, *random_batch(rng, 6, 20), LossConfig())
            grad *= 1.0 / 20
            apply_update(model, grad, flat_velocity, 0.9, learning_rate=0.05)
            for v, g, p in zip(velocity, sum(grad_layers(grad, model), []), params):
                v *= 0.9
                v += g
                p -= 0.05 * v
        for got, want in zip(model.weights + model.biases, params):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()
        assert flat_velocity.tobytes() == np.concatenate([v.ravel() for v in velocity]).tobytes()

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("part", ["weight", "bias"])
    def test_nonfinite_gradient_names_its_layer(self, monkeypatch, k, part):
        real = network._backprop

        def spoiled(model, *args):
            grad = real(model, *args)
            d_weights, d_biases = grad_layers(grad, model)
            (d_weights if part == "weight" else d_biases)[k].flat[-1] = np.inf
            return grad

        monkeypatch.setattr(network, "_backprop", spoiled)
        rng = np.random.default_rng(3)
        model = init_model([4, 3, 3, 2], rng=rng).copy(np.float32)
        with pytest.raises(FloatingPointError, match=rf"numerical overflow in layer {k}$"):
            batch_gradients(model, *random_batch(rng, 4, 5), LossConfig())

    def test_finite_layer_near_the_dtype_limit_is_accepted(self):
        # each entry 3e38 is finite in float32, though any sum of two is not
        model = SiameseModel((1, 1), [np.array([[3e38]], dtype=np.float32)],
                             [np.zeros(1, dtype=np.float32)], "linear")
        out = embed(model, np.ones((4, 1)))
        assert np.all(out == np.float32(3e38))

    @pytest.mark.parametrize("rows", [[[1, 1], [1, 1]], [[1, 1], [-1, -1]]],
                             ids=["inf", "inf-and-minus-inf"])
    def test_inf_in_a_hidden_sigmoid_layer_raises(self, rows):
        # sigmoid(inf) is a finite 1.0, so nothing later would show it; a
        # column holding inf and -inf sums to nan
        model = SiameseModel(
            (2, 1, 1),
            [np.full((2, 1), 3e38, dtype=np.float32), np.ones((1, 1), dtype=np.float32)],
            [np.zeros(1, dtype=np.float32), np.zeros(1, dtype=np.float32)],
            "sigmoid",
        )
        with pytest.raises(FloatingPointError, match=r"numerical overflow in layer 0$"):
            embed(model, np.array(rows, dtype=float))


class TestFloat32:
    """A float32 model steps and embeds in float32. The float64 checks above
    (finite differences at 1e-4, the unfused reference at 1e-12) keep their
    tolerances; float32 is compared against float64 on the same weights."""

    @pytest.mark.parametrize("kind", [CONTRASTIVE, REGULARIZED_LOG])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh", "linear"])
    def test_step_stays_float32(self, kind, activation):
        rng = np.random.default_rng(3)
        model = init_model([5, 6, 4, 3], activation=activation, rng=rng).copy(np.float32)
        batch = random_batch(rng, 5, 40)   # float64 feature rows
        grad, _ = batch_gradients(model, *batch, LossConfig(kind=kind))
        velocity = np.zeros_like(model.params)
        grad *= 1.0 / len(batch[0])
        apply_update(model, grad, velocity, 0.9, learning_rate=0.01)
        arrays = (
            sum(grad_layers(grad, model), []) + [grad, velocity, model.params]
            + model.weights + model.biases
        )
        assert [a.dtype for a in arrays] == [np.float32] * len(arrays)

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh", "linear"])
    def test_activation_and_derivative_keep_dtype(self, activation):
        act_fn, act_deriv = network._ACTIVATIONS[activation]
        z = np.linspace(-2.0, 2.0, 9, dtype=np.float32)
        assert act_fn(z).dtype == np.float32
        assert act_deriv(z).dtype == np.float32

    @pytest.mark.parametrize("kind", [CONTRASTIVE, REGULARIZED_LOG])
    def test_pair_terms_hand_coeff_back_in_distance_dtype(self, kind):
        d = np.array([0.0, 0.5, 2.0], dtype=np.float32)
        y = np.array([1.0, 0.0, 0.0])    # float64 targets
        losses, coeff = _pair_terms(d, y, LossConfig(kind=kind))
        assert coeff.dtype == np.float32
        assert losses.dtype == np.float64

    @pytest.mark.parametrize("kind", [CONTRASTIVE, REGULARIZED_LOG])
    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
    def test_gradients_match_float64_on_same_weights(self, kind, activation):
        # float32 rounding (eps 1.2e-7) over a 3-layer, 40-pair step: allow
        # 1e-4 relative, against the largest component for cancelling sums
        rng = np.random.default_rng(31)
        model32 = init_model([5, 6, 4, 3], activation=activation, rng=rng).copy(np.float32)
        model64 = model32.copy(np.float64)
        batch = random_batch(rng, 5, 40)
        cfg = LossConfig(kind=kind)
        g32, loss32 = batch_gradients(model32, *batch, cfg)
        g64, loss64 = batch_gradients(model64, *batch, cfg)
        np.testing.assert_allclose(loss32, loss64, rtol=1e-4)
        layers32, layers64 = (sum(grad_layers(g, model32), []) for g in (g32, g64))
        scale = max(float(np.max(np.abs(g))) for g in layers64)
        for got, want in zip(layers32, layers64):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * scale)

    def test_regularized_log_identical_dissimilar_pair_finite(self):
        # in float32, 1 - CLAMP_EPS == 1: the clamp must happen in float64
        model32 = init_model([3, 4, 2], rng=6).copy(np.float32)
        x = np.array([0.2, 0.7, 0.1])
        batch = make_batch(x, x, [False])
        cfg = LossConfig(kind=REGULARIZED_LOG)
        grad, loss32 = batch_gradients(model32, *batch, cfg)
        loss64 = batch_gradients(model32.copy(np.float64), *batch, cfg)[1]
        assert math.isfinite(loss32)
        assert loss32 == loss64
        assert np.all(np.isfinite(grad))

    def test_embed_casts_input_to_model_dtype(self):
        model = init_model([4, 3, 2], rng=1).copy(np.float32)
        assert embed(model, np.ones((1, 4))).dtype == np.float32
        assert embed(model, np.ones((3, 4), dtype=np.float64)).dtype == np.float32


class TestOptimizer:
    def test_zero_gradient_no_change(self):
        model = init_model([3, 2], rng=1)
        before = [w.copy() for w in model.weights]
        grad, _ = batch_gradients(
            model,
            *make_batch(np.ones((1, 3)), np.ones((1, 3)), [True]),
            LossConfig(),
        )
        apply_update(model, grad, np.zeros_like(model.params), 0.9, learning_rate=0.5)
        for w0, w1 in zip(before, model.weights):
            assert np.array_equal(w0, w1)

    def test_plain_step_subtracts_gradient(self):
        model = SiameseModel((2, 2), [np.ones((2, 2))], [np.zeros(2)], "linear")
        g = np.array([0.25, 0.25, 0.25, 0.25, 0.5, 0.5])
        apply_update(model, g, np.zeros_like(model.params), 0.0, learning_rate=1.0)
        np.testing.assert_allclose(model.weights[0], np.full((2, 2), 0.75))
        np.testing.assert_allclose(model.biases[0], np.full(2, -0.5))

    def test_momentum_two_step_displacement(self):
        # v1 = g, v2 = 0.9 g + g = 1.9 g  =>  total displacement lr*g*(1+1.9)
        model = SiameseModel((2, 2), [np.zeros((2, 2))], [np.zeros(2)], "linear")
        g = np.array([2.0, 2.0, 2.0, 2.0, 0.0, 0.0])
        velocity = np.zeros_like(model.params)
        lr = 0.1
        apply_update(model, g, velocity, 0.9, lr)
        apply_update(model, g, velocity, 0.9, lr)
        np.testing.assert_allclose(model.weights[0], np.full((2, 2), -lr * 2.0 * 2.9))

    def test_training_reduces_loss_by_half(self):
        # fixed separable toy batch: two clusters on a line
        rng = np.random.default_rng(33)
        model = init_model([2, 8, 2], rng=0)
        a = rng.normal(0.2, 0.02, size=(16, 2))
        b = rng.normal(0.8, 0.02, size=(16, 2))
        x1 = np.vstack([a[:8], a[8:]])
        x2 = np.vstack([a[8:], b[:8]])
        batch = make_batch(x1, x2, [True] * 8 + [False] * 8)
        cfg = LossConfig(kind=CONTRASTIVE)
        velocity = np.zeros_like(model.params)
        initial = batch_gradients(model, *batch, cfg)[1]
        for _ in range(100):
            grad, _ = batch_gradients(model, *batch, cfg)
            grad *= 1.0 / len(x1)
            apply_update(model, grad, velocity, 0.9, learning_rate=0.01)
        assert batch_gradients(model, *batch, cfg)[1] <= 0.5 * initial


class TestCheckpoint:
    def test_roundtrip_exact(self, tmp_path):
        model = init_model([7, 5, 3], activation="tanh", rng=99)
        path = tmp_path / "checkpoint.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.layer_sizes == model.layer_sizes
        assert loaded.activation == "tanh"
        for w1, w2 in zip(model.weights, loaded.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(model.biases, loaded.biases):
            assert np.array_equal(b1, b2)

    def test_float32_roundtrip_embeds_identically(self, tmp_path, rng):
        model = init_model([7, 5, 3], activation="sigmoid", rng=4).copy(np.float32)
        batch = random_batch(rng, 7, 16)
        velocity = np.zeros_like(model.params)
        for _ in range(3):   # weights that are no longer rounded float64 draws
            grad, _ = batch_gradients(model, *batch, LossConfig())
            apply_update(model, grad, velocity, 0.9, learning_rate=0.05)
        path = tmp_path / "checkpoint.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dtype == np.float32
        for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        x = rng.random((10, 7))
        assert np.array_equal(embed(loaded, x), embed(model, x))

    def test_float32_written_in_shortest_digits(self, tmp_path):
        import json

        model = SiameseModel(
            (2, 1), [np.array([[0.1], [1e-8]], dtype=np.float32)],
            [np.array([1 / 3], dtype=np.float32)], "linear",
        )
        path = tmp_path / "checkpoint.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload["weights"] == [[[0.1], [1e-08]]]
        assert payload["biases"] == [[0.33333334]]
        assert '"weights": [[[0.1], [1e-08]]]' in path.read_text()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_any_finite_value_reloads_bit_identically(self, tmp_path, dtype):
        # weights spread over every exponent the dtype has
        rng = np.random.default_rng(8)
        model = init_model([40, 30, 20], rng=1).copy(dtype)
        uint = np.uint32 if dtype == np.float32 else np.uint64
        for w in model.weights + model.biases:
            bits = rng.integers(0, np.iinfo(uint).max, size=w.shape, dtype=uint, endpoint=True)
            values = bits.view(dtype)
            w[...] = np.where(np.isfinite(values), values, 0.5)
        path = tmp_path / "checkpoint.json"
        save_model(model, path)
        loaded = load_model(path)
        for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_float64_checkpoint_bytes_unchanged(self, tmp_path):
        import json

        model = init_model([7, 5, 3], rng=99)
        path = tmp_path / "checkpoint.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["weights"] = [w.tolist() for w in model.weights]
        payload["biases"] = [b.tolist() for b in model.biases]
        assert path.read_text() == json.dumps(payload)

    def test_checkpoint_without_dtype_loads_float64(self, tmp_path):
        import json

        model = init_model([4, 3], rng=2)
        path = tmp_path / "checkpoint.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        assert payload.pop("dtype") == "float64"
        path.write_text(json.dumps(payload))
        loaded = load_model(path)
        assert loaded.dtype == np.float64
        assert np.array_equal(loaded.weights[0], model.weights[0])

    def test_rejects_unknown_dtype(self, tmp_path):
        import json

        path = tmp_path / "checkpoint.json"
        save_model(init_model([3, 2], rng=0), path)
        payload = json.loads(path.read_text())
        payload["dtype"] = "int8"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="dtype 'int8'"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("activation", "softplus", "unknown activation 'softplus'"),
            ("weights", [[[0.0, 0.0, 0.0]] * 3, [[0.0, 0.0]] * 3], r"layer 0: weight \(3, 3\)"),
        ],
        ids=["activation", "weight-rows"],
    )
    def test_rejects_parameters_not_matching_layers(self, tmp_path, key, value, message):
        import json

        path = tmp_path / "checkpoint.json"
        save_model(init_model([4, 3, 2], rng=0), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="checkpoint.json: " + message):
            load_model(path)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}', encoding="utf-8")
        with pytest.raises(ValueError, match="not a model checkpoint"):
            load_model(path)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("not-json", "not a model checkpoint: Expecting value"),
            ("list", "not a model checkpoint"),
            ("number", "not a model checkpoint"),
            ("layer_sizes", "checkpoint has no 'layer_sizes'"),
            ("weights", "checkpoint has no 'weights'"),
            ("biases", "checkpoint has no 'biases'"),
            ("activation", "checkpoint has no 'activation'"),
            ("layer_sizes-number", "checkpoint 'layer_sizes' is not a list"),
            ("weights-number", "checkpoint 'weights' is not a list"),
            ("biases-number", "checkpoint 'biases' is not a list"),
            ("layer-size-list", r"layer widths must be integers, got \[\[4\], 3, 2\] "
                                r"\(checkpoint 'layer_sizes'\)"),
            ("layer-size-float", r"layer widths must be integers, got \[4\.5, 3, 2\] "
                                 r"\(checkpoint 'layer_sizes'\)"),
            ("layer-size-string", r"layer widths must be integers, got \['4', 3, 2\] "
                                  r"\(checkpoint 'layer_sizes'\)"),
            ("layer-size-bool", r"layer widths must be integers, got \[True, 3, 2\] "
                                r"\(checkpoint 'layer_sizes'\)"),
            ("bias-width", r"layer 0: weight \(4, 3\) and bias \(4,\)"),
            ("layer-widths", r"layer 1: weight \(3, 2\) and bias \(2,\)"),
        ],
    )
    def test_rejects_malformed_checkpoint_naming_the_path(self, tmp_path, case, message):
        import json
        import re

        path = tmp_path / "checkpoint.json"
        save_model(init_model([4, 3, 2], rng=0), path)
        payload = json.loads(path.read_text())
        if case == "list":
            payload = [payload]
        elif case == "number":
            payload = 7
        elif case == "bias-width":
            payload["biases"][0] = [0.0] * 4
        elif case == "layer-widths":
            payload["layer_sizes"] = [4, 3, 3]
        elif case.startswith("layer-size-"):
            payload["layer_sizes"][0] = {"list": [4], "float": 4.5, "string": "4",
                                         "bool": True}[case.removeprefix("layer-size-")]
        elif case.endswith("-number"):
            payload[case.removesuffix("-number")] = 5
        elif case != "not-json":
            del payload[case]
        path.write_text("not json" if case == "not-json" else json.dumps(payload))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + message):
            load_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        model = init_model([3, 2], rng=0)
        path = tmp_path / "checkpoint.json"
        save_model(model, path)
        import json

        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_model(path)
