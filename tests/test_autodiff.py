"""Derivative engine checks against independent finite-difference oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vesselflow import autodiff as ad
from vesselflow import nets


def central_first(f, x, i, h=1e-5):
    """Finite-difference oracle, independent of the recorded backward pass."""
    hi = list(x)
    lo = list(x)
    hi[i] += h
    lo[i] -= h
    return (f(hi) - f(lo)) / (2.0 * h)


def central_second(f, x, i, j, h=1e-4):
    if i == j:
        hi = list(x)
        lo = list(x)
        hi[i] += h
        lo[i] -= h
        return (f(hi) - 2.0 * f(x) + f(lo)) / (h * h)
    pp = list(x); pm = list(x); mp = list(x); mm = list(x)
    pp[i] += h; pp[j] += h
    pm[i] += h; pm[j] -= h
    mp[i] -= h; mp[j] += h
    mm[i] -= h; mm[j] -= h
    return (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * h * h)


def weight(tape, name, k):
    """Entry k of registered parameter group `name` as a record node: a
    bias-free 1x1 layer on the constant 1, read with select. Its value is
    the entry itself and its gradient lands in entry k exactly."""
    one = tape.stack([tape.constant(1.0)])
    return tape.select(tape.affine(one, name, k, (1, 1)), 0)


class TestGradInputs:
    def test_square(self):
        assert ad.grad_inputs(lambda x: x * x, [3.0]) == [6.0]

    def test_bilinear(self):
        g = ad.grad_inputs(lambda x, y: x * y, [2.0, 5.0])
        assert g == [5.0, 2.0]

    def test_sigmoid_slope_at_zero(self):
        # sigma'(0) = sigma(0) * (1 - sigma(0)) = 0.25 by hand
        (g,) = ad.grad_inputs(lambda x: ad.sigmoid(x), [0.0])
        assert g == pytest.approx(0.25, abs=1e-14)

    def test_polynomial_exact(self):
        def f(x, y):
            return x * x * y + 2.0 * y - x

        g = ad.grad_inputs(f, [1.5, -0.5])
        assert g[0] == pytest.approx(2 * 1.5 * -0.5 - 1.0, abs=1e-14)
        assert g[1] == pytest.approx(1.5 * 1.5 + 2.0, abs=1e-14)

    def test_division_by_zero_names_node(self):
        with pytest.raises(ad.EvaluationError, match=r"node \d+ \(div\)"):
            ad.grad_inputs(lambda x: 1.0 / (x - 1.0), [1.0])

    def test_sqrt_negative_names_node(self):
        with pytest.raises(ad.EvaluationError, match=r"node \d+ \(sqrt\)"):
            ad.grad_inputs(lambda x: ad.sqrt(x), [-2.0])


PRIMITIVES = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / (y + 3.0),
    "exp": lambda x, y: ad.exp(x * 0.5) + y,
    "sqrt": lambda x, y: ad.sqrt(x + 3.0) * y,
    "relu": lambda x, y: ad.relu(x) + ad.relu(y),
    "sin": lambda x, y: ad.sin(x) * ad.cos(y),
    "composed": lambda x, y: ad.exp(-(x * x)) / (ad.sqrt(y + 3.0) + 1.0),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitives_match_finite_differences(name):
    f = PRIMITIVES[name]

    def feval(pt):
        tape = ad.Tape()
        leaves = [tape.batch([v]) for v in pt]
        return f(*leaves).value.item()

    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        pt = rng.uniform(-2.0, 2.0, size=2)
        if name == "relu" and (abs(pt[0]) < 1e-3 or abs(pt[1]) < 1e-3):
            continue  # stay away from the kink
        g = ad.grad_inputs(f, pt)
        for i in range(2):
            want = central_first(feval, pt, i)
            assert g[i] == pytest.approx(want, rel=1e-5, abs=1e-7)
        checked += 1


class TestSecondDerivative:
    def test_cubic(self):
        assert ad.second_derivative(lambda x: x * x * x, [2.0], 0, 0) == pytest.approx(12.0)

    def test_mixed_partial(self):
        assert ad.second_derivative(lambda x, y: x * y, [2.0, 5.0], 0, 1) == 1.0

    def test_relu_linear_region(self):
        assert ad.second_derivative(lambda x: ad.relu(x), [1.0], 0, 0) == 0.0

    @given(
        x=st.floats(-2, 2, allow_nan=False),
        y=st.floats(-2, 2, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, x, y):
        def f(a, b):
            return ad.exp(a * 0.3) * b + a * b * b

        d01 = ad.second_derivative(f, [x, y], 0, 1)
        d10 = ad.second_derivative(f, [x, y], 1, 0)
        assert d01 == pytest.approx(d10, rel=1e-12, abs=1e-12)

    def test_against_fd_oracle(self):
        def f(a, b):
            return ad.sin(a) * ad.exp(0.2 * b) + a * a * b

        def feval(pt):
            tape = ad.Tape()
            leaves = [tape.batch([v]) for v in pt]
            return f(*leaves).value.item()

        rng = np.random.default_rng(3)
        for _ in range(25):
            pt = rng.uniform(-2, 2, size=2)
            for i in range(2):
                for j in range(2):
                    got = ad.second_derivative(f, pt, i, j)
                    want = central_second(feval, pt, i, j)
                    assert got == pytest.approx(want, rel=1e-3, abs=1e-5)


class TestParamGrad:
    def test_square_param(self):
        tape = ad.Tape()
        theta = np.array([3.0])
        tape.register_params("w", theta)
        w = weight(tape, "w", 0)
        loss = w * w
        assert ad.param_grad(loss, "w").tolist() == [6.0]

    def test_grad_of_input_derivative(self):
        # loss = (d/dx of w*x)^2 = w^2, so dloss/dw = 2w = 6
        tape = ad.Tape()
        theta = np.array([3.0])
        tape.register_params("w", theta)
        w = weight(tape, "w", 0)
        x = tape.batch([1.7])
        y = w * x
        (dydx,) = tape.grad(y, [x])
        loss = dydx * dydx
        assert ad.param_grad(loss, "w").tolist() == [6.0]

    def test_constant_loss_gives_zero_vector(self):
        tape = ad.Tape()
        theta = np.array([1.0, -2.0, 0.5])
        tape.register_params("w", theta)
        weight(tape, "w", 0)  # touched but unused
        x = tape.batch([2.0])
        loss = x * x
        assert ad.param_grad(loss, "w").tolist() == [0.0, 0.0, 0.0]

    def test_third_order_mixed_against_fd(self):
        # Loss containing a second input-derivative, differentiated by params:
        # y = w * x^3; d2y/dx2 = 6 w x; loss = (6 w x)^2 -> dloss/dw = 72 w x^2
        tape = ad.Tape()
        theta = np.array([0.8])
        tape.register_params("w", theta)
        w = weight(tape, "w", 0)
        x = tape.batch([1.3])
        y = w * x * x * x
        (g1,) = tape.grad(y, [x])
        (g2,) = tape.grad(g1, [x])
        loss = g2 * g2
        got = ad.param_grad(loss, "w")[0]
        want = 72.0 * 0.8 * 1.3**2
        assert got == pytest.approx(want, rel=1e-12)


class TestBatchedValues:
    def test_lockstep_matches_scalar_loop(self):
        xs = np.linspace(-1.5, 2.0, 7)
        tape = ad.Tape()
        xb = tape.batch(xs)
        y = ad.exp(xb * 0.5) + xb * xb
        per_point = []
        for v in xs:
            t2 = ad.Tape()
            lx = t2.batch([v])
            per_point.append((ad.exp(lx * 0.5) + lx * lx).value.item())
        assert np.array_equal(y.value, np.array(per_point))

    def test_mean_reduces_batch(self):
        tape = ad.Tape()
        xb = tape.batch([1.0, 2.0, 3.0])
        m = tape.mean(xb * xb)
        assert m.value == pytest.approx((1 + 4 + 9) / 3.0)

    def test_mean_gradient_flows_back(self):
        tape = ad.Tape()
        theta = np.array([2.0])
        tape.register_params("w", theta)
        w = weight(tape, "w", 0)
        xb = tape.batch([1.0, 2.0, 3.0])
        loss = tape.mean(w * xb * (w * xb))  # mean(w^2 x^2)
        g = ad.param_grad(loss, "w")[0]
        want = 2.0 * 2.0 * np.mean(np.array([1.0, 4.0, 9.0]))
        assert g == pytest.approx(want, rel=1e-14)

    def test_mean_adjoint_reaches_every_point(self):
        # d mean(x + w) / dw = 1: the adjoint 1/n of the mean is repeated at
        # each of the n points before it is summed into w. A tangent does
        # not cross the mean; the mean of the per-point tangent is recorded.
        tape = ad.Tape()
        tape.register_params("w", np.array([2.0]))
        w = weight(tape, "w", 0)
        per_point = tape.batch([1.0, 2.0, 3.0]) + w
        loss = tape.mean(per_point)
        assert ad.param_grad(loss, "w").tolist() == [1.0]
        with pytest.raises(ad.RecordError, match="mean"):
            tape.grad(loss, [w])
        (tangent,) = tape.grad(per_point, [w])
        assert tape.mean(tangent).value == 1.0

    def test_recorded_gradient_sums_over_batch(self):
        # d mean(w x) / dw = mean(x) = 2 for a scalar w, from both walks: as
        # the mean of the tangent with w a root, and as a parameter gradient
        tape = ad.Tape()
        tape.register_params("w", np.array([0.5]))
        w = weight(tape, "w", 0)
        per_point = w * tape.batch([1.0, 2.0, 3.0])
        loss = tape.mean(per_point)
        (tangent,) = tape.grad(per_point, [w])
        assert tape.mean(tangent).value == pytest.approx(2.0, rel=1e-15)
        assert ad.param_grad(loss, "w")[0] == pytest.approx(2.0, rel=1e-15)


class TestReplay:
    def test_replay_is_bit_identical(self):
        tape = ad.Tape()
        x = tape.batch([0.7])
        y = tape.batch([-1.2])
        out = ad.exp(x * y) + ad.sqrt(x + 2.0) / (y * y + 1.0)
        (gx,) = tape.grad(out, [x])
        v0, g0 = out.value.item(), gx.value.item()
        tape.replay()
        assert out.value.item() == v0 and gx.value.item() == g0

    def test_replay_with_new_leaf_values(self):
        tape = ad.Tape()
        x = tape.batch([0.7])
        out = x * x + ad.sin(x)
        tape.set_value(x, [1.1])
        tape.replay()
        fresh = ad.Tape()
        xf = fresh.batch([1.1])
        want = (xf * xf + ad.sin(xf)).value.item()
        assert out.value.item() == want

    def test_replay_with_new_params(self):
        tape = ad.Tape()
        theta = np.array([1.0, 2.0])
        tape.register_params("w", theta)
        a, b = weight(tape, "w", 0), weight(tape, "w", 1)
        x = tape.batch([0.5])
        out = a * x + b
        theta[0] = 3.0
        tape.replay()
        assert out.value.item() == 3.0 * 0.5 + 2.0

    def test_same_function_twice_identical_gradients(self):
        def run():
            tape = ad.Tape()
            pts = [tape.batch([v]) for v in (0.3, -0.9, 1.4)]
            y = ad.exp(pts[0] * pts[1]) + ad.relu(pts[2]) * pts[0]
            g = tape.grad(y, pts)
            return y.value.item(), [v.value.item() for v in g]

        assert run() == run()


class TestIncrementalReplay:
    def test_nothing_changed_evaluates_nothing(self, monkeypatch):
        tape = ad.Tape()
        theta = np.array([0.4, -0.3])
        tape.register_params("w", theta)
        x = tape.batch([0.5, -1.5, 2.0])
        out = ad.relu(weight(tape, "w", 0) * x) + ad.sin(x) * weight(tape, "w", 1)
        tape.grad(out, [x])
        calls = []
        original = ad.Tape._eval

        def counted(self, i):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(ad.Tape, "_eval", counted)
        tape.replay()
        theta[:] = theta  # rewriting the same bits is no change
        tape.replay()
        assert calls == []

    def test_sign_of_zero_is_a_change(self, monkeypatch):
        # a matmul can lose the sign of a zero, so the replay is checked to
        # re-evaluate the layer that reads the weight, not to change a value
        tape = ad.Tape()
        theta = np.array([0.0])
        tape.register_params("w", theta)
        out = weight(tape, "w", 0) * tape.batch([2.0])
        (layer,) = [i for i, op in enumerate(tape._ops) if op == ad._AFFINE]
        calls = []
        original = ad.Tape._eval

        def counted(self, i):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(ad.Tape, "_eval", counted)
        theta[0] = -0.0
        tape.replay()
        assert layer in calls and out.index in calls

    def test_group_modified_between_forwards_then_restored(self):
        def record(tape, net, modify):
            x = [tape.batch([0.1, 0.4, -0.2]), tape.batch([1.0, 0.5, 0.3])]
            first = net.forward(tape, x)
            theta0 = net.theta.copy()
            if modify:
                net.theta *= 1.5
            second = net.forward(tape, x)
            (g,) = tape.grad(first[0] * second[0], [x[0]])
            net.theta[:] = theta0
            return g

        net = nets.build(4, 5, 2, 1, seed=3, name="w")
        tape = ad.Tape()
        record(tape, net, modify=True)
        tape.replay()
        fresh = ad.Tape()
        record(fresh, net, modify=False)
        assert len(tape) == len(fresh)
        for got, want in zip(tape._vals, fresh._vals):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_new_leaf_values_reach_relu_layer_tangents(self):
        # a first-layer tangent along a leaf is a constant row, so only its
        # mask, the relu layer's step, reads the leaves
        rng = np.random.default_rng(7)
        theta = rng.uniform(-1.5, 1.5, size=4 * 3 + 1 * 5)

        def record(tape, pts):
            tape.register_params("w", theta)
            leaves = [tape.batch(pts[:, k]) for k in range(2)]
            hidden = tape.affine(tape.stack(leaves), "w", 0, (4, 2), bias=8, act="relu")
            out = tape.select(tape.affine(hidden, "w", 12, (1, 4), bias=16), 0)
            tape.grad(out * out, leaves)
            return leaves

        tape = ad.Tape()
        leaves = record(tape, rng.uniform(-1.0, 1.0, size=(6, 2)))
        pts = rng.uniform(-1.0, 1.0, size=(6, 2))
        for k, leaf in enumerate(leaves):
            tape.set_value(leaf, pts[:, k])
        tape.replay()
        fresh = ad.Tape()
        record(fresh, pts)
        assert len(tape) == len(fresh)
        for got, want in zip(tape._vals, fresh._vals):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_failed_replay_is_retried(self):
        tape = ad.Tape()
        theta = np.array([1.0])
        tape.register_params("w", theta)
        tape.batch([3.0]) / weight(tape, "w", 0)
        theta[0] = 0.0
        for _ in range(2):  # the second replay sees no new change but must redo the first
            with pytest.raises(ad.EvaluationError):
                tape.replay()


class TestFdCheck:
    def test_quadratic(self):
        assert ad.fd_check(lambda x: x * x, [1.0], 1e-4) < 1e-6

    def test_degree_two_polynomial(self):
        def f(x, y):
            return 2.0 * x * x - x * y + 3.0 * y * y + x - 4.0

        assert ad.fd_check(f, [0.4, -1.1], 1e-4) < 1e-6

    def test_linear(self):
        assert ad.fd_check(lambda x, y: 2.0 * x - y, [0.3, 0.9], 1e-5) < 1e-10

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ad.fd_check(lambda x: x, [0.0], 0.0)


class TestDetach:
    def test_detach_blocks_gradient(self):
        tape = ad.Tape()
        theta = np.array([2.0])
        tape.register_params("w", theta)
        w = weight(tape, "w", 0)
        loss = tape.detach(w * w) * 3.0
        assert ad.param_grad(loss, "w").tolist() == [0.0]

    def test_detach_keeps_value(self):
        tape = ad.Tape()
        x = tape.batch([1.5])
        assert tape.detach(x * 2.0).value.item() == 3.0


class TestTapeHygiene:
    def test_cross_tape_mixing_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ad.RecordError):
            t1.batch([1.0]) + t2.batch([2.0])

    def test_mismatched_batches_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ad.RecordError):
            tape.batch([1.0, 2.0]) + tape.batch([1.0, 2.0, 3.0])


class TestForwardTangents:
    """``Tape.grad`` records forward tangents, cached per root."""

    @staticmethod
    def network_points(net, count, seed):
        """Points in [-1, 1]^3 away from every relu kink, as columns."""
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < count:
            pt = rng.uniform(-1.0, 1.0, size=3)
            if net.relu_margin(pt) > 1e-3:
                pts.append(pt)
        return np.array(pts)

    def test_network_derivatives_match_fd(self):
        net = nets.build(12, 20, 3, 2, seed=7)
        pts = self.network_points(net, 6, seed=42)
        tape = ad.Tape()
        leaves = [tape.batch(pts[:, i]) for i in range(3)]
        outs = net.forward(tape, leaves)
        h1, h2 = 1e-5, 1e-4

        def shifted(k, steps):
            moved = pts.copy()
            for i, h in steps:
                moved[:, i] += h
            return net.evaluate(moved)[:, k]

        for k, out in enumerate(outs):
            first = tape.grad(out, leaves)
            for i in range(3):
                fd = (shifted(k, [(i, h1)]) - shifted(k, [(i, -h1)])) / (2 * h1)
                np.testing.assert_allclose(first[i].value, fd, rtol=1e-5, atol=1e-7)
                for j in range(3):
                    (second,) = tape.grad(first[i], [leaves[j]])
                    fd = (shifted(k, [(i, h2), (j, h2)]) - shifted(k, [(i, h2), (j, -h2)])
                          - shifted(k, [(i, -h2), (j, h2)])
                          + shifted(k, [(i, -h2), (j, -h2)])) / (4 * h2 * h2)
                    np.testing.assert_allclose(second.value, fd, rtol=1e-3, atol=1e-6)

    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_tangent_of_tangent_matches_fd(self, name):
        f = PRIMITIVES[name]

        def feval(pt):
            tape = ad.Tape()
            return f(*[tape.batch([v]) for v in pt]).value.item()

        rng = np.random.default_rng(5)
        checked = 0
        while checked < 10:
            pt = rng.uniform(-2.0, 2.0, size=2)
            if name == "relu" and min(abs(pt)) < 1e-2:
                continue
            for i in range(2):
                for j in range(2):
                    tape = ad.Tape()
                    leaves = [tape.batch([v]) for v in pt]
                    (first,) = tape.grad(f(*leaves), [leaves[i]])
                    (second,) = tape.grad(first, [leaves[j]])
                    want = central_second(feval, pt, i, j)
                    assert second.value == pytest.approx(want, rel=1e-3, abs=1e-5)
            checked += 1

    def test_sigmoid_curvature_closed_form(self):
        tape = ad.Tape()
        x = tape.batch([-3.0, -0.4, 0.0, 1.7])
        s = ad.sigmoid(x)
        (slope,) = tape.grad(s, [x])
        (curvature,) = tape.grad(slope, [x])
        sv = s.value
        np.testing.assert_allclose(curvature.value, sv * (1 - sv) * (1 - 2 * sv), rtol=1e-14)
        # along the activation itself the slope s(1 - s) has derivative 1 - 2s
        (along_s,) = tape.grad(slope, [s])
        np.testing.assert_allclose(along_s.value, 1 - 2 * sv, rtol=1e-14)

    def test_second_output_reuses_the_first_outputs_layers(self):
        net = nets.build(12, 20, 3, 2, seed=1)
        tape = ad.Tape()
        leaves = [tape.batch([0.1, -0.3]), tape.batch([0.5, 1.2]), tape.batch([0.0, 0.9])]
        u_z, u_r = net.forward(tape, leaves)
        tape.grad(u_z, [leaves[0]])
        before = len(tape)
        tape.grad(u_r, [leaves[0]])
        assert len(tape) - before <= net.out_dim

    def test_second_derivative_nodes_per_layer_bounded(self):
        depth = 12
        net = nets.build(depth, 20, 3, 2, seed=1)
        tape = ad.Tape()
        leaves = [tape.batch([0.1, -0.3]), tape.batch([0.5, 1.2]), tape.batch([0.0, 0.9])]
        u_z, _ = net.forward(tape, leaves)
        before = len(tape)
        (first,) = tape.grad(u_z, [leaves[0]])
        first_nodes = len(tape) - before
        tape.grad(first, [leaves[0]])
        second_nodes = len(tape) - before - first_nodes
        # per layer the first tangent records an affine node, a slope
        # (one step, or 1 - s and s(1 - s)) and a product; the second adds a
        # sigmoid's curvature and the product rule's three terms
        assert first_nodes <= 4 * depth
        assert second_nodes <= 5 * depth

    def test_batched_root_through_a_mean_is_rejected(self):
        tape = ad.Tape()
        x = tape.batch([1.0, 2.0, 3.0])
        with pytest.raises(ad.RecordError, match="mean"):
            tape.grad(tape.mean(x * x), [x])

    def test_dependent_roots_are_rejected(self):
        tape = ad.Tape()
        x = tape.batch([0.5])
        y = x * 2.0
        with pytest.raises(ad.RecordError, match="depends on another root"):
            tape.grad(y * y + x, [x, y])


class TestFusedLayer:
    """A layer node act(x W^T + b) computes what an affine node followed by
    ``ad.sigmoid`` or ``ad.relu`` computes, bit for bit: values, first and
    second tangents and parameter gradients."""

    LAYERS = ((4, 2), (4, 4), (1, 4))  # (rows, cols); the last is not activated

    def record(self, act, fused, five_points, third_order=False):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1.5, 1.5, size=sum(r * (c + 1) for r, c in self.LAYERS))
        pts = rng.uniform(-1.0, 1.0, size=(5, 2))
        tape = ad.Tape()
        tape.register_params("w", theta)
        n = 5 if five_points else 1
        leaves = [tape.batch(pts[:n, k]) for k in range(2)]
        if third_order:
            # inputs whose tangents have tangents of their own, one of them
            # a constant row: d/dx1 of (x1, cos x0) is (1, 0)
            x = tape.stack([leaves[0] * leaves[1], ad.sin(leaves[0])])
        else:
            x = tape.stack(leaves)
        off = 0
        for layer, (rows, cols) in enumerate(self.LAYERS):
            layer_act = act if layer < len(self.LAYERS) - 1 else None
            bias = off + rows * cols
            if fused:
                x = tape.affine(x, "w", off, (rows, cols), bias=bias, act=layer_act)
            else:
                x = tape.affine(x, "w", off, (rows, cols), bias=bias)
                if layer_act is not None:
                    x = {"sigmoid": ad.sigmoid, "relu": ad.relu}[layer_act](x)
            off = bias + rows
        out = tape.select(x, 0)
        first = tape.grad(out, leaves)
        second = [d for f in first for d in tape.grad(f, leaves)]
        terms = out * out + first[0] * second[1] + second[3]
        third = [d for s in second for d in tape.grad(s, leaves)] if third_order else []
        for d in third:
            terms = terms + d * d
        loss = tape.mean(terms)
        grads = tape.backward_values(loss, ["w"])
        values = [np.asarray(v.value) for v in (out, *first, *second, *third, loss)]
        return values, grads["w"]

    def assert_same_record(self, act, five_points, third_order=False):
        fused_values, fused_grad = self.record(act, True, five_points, third_order)
        plain_values, plain_grad = self.record(act, False, five_points, third_order)
        assert len(fused_values) == len(plain_values) == (16 if third_order else 8)
        for got, want in zip(fused_values, plain_values):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.any(fused_grad != 0.0)
        assert fused_grad.tobytes() == plain_grad.tobytes()
        return fused_values

    @pytest.mark.parametrize("five_points", [False, True])  # else one point
    @pytest.mark.parametrize("act", ["sigmoid", "relu"])
    def test_equals_affine_then_activation(self, act, five_points):
        self.assert_same_record(act, five_points)

    @pytest.mark.parametrize("five_points", [False, True])
    @pytest.mark.parametrize("act", ["sigmoid", "relu"])
    def test_third_order_equals_affine_then_activation(self, act, five_points):
        # the tangent of a second tangent; for relu, a layer tangent's own
        # tangent, along the same root and along the other one
        values = self.assert_same_record(act, five_points, third_order=True)
        d01, d000 = values[4], values[7]
        assert np.any(d01 != 0.0) and np.any(d000 != 0.0)

    def test_unknown_activation_rejected(self):
        tape = ad.Tape()
        tape.register_params("w", np.ones(2))
        x = tape.stack([tape.batch([1.0])])
        with pytest.raises(ad.RecordError, match="unknown activation"):
            tape.affine(x, "w", 0, (1, 1), bias=1, act="tanh")


class TestSlopeReuse:
    """The backward pass multiplies by the slope nodes that ``Tape.grad``
    recorded where there are any, and computes the slope where there are
    none; both give the same parameter gradients, bit for bit."""

    def record(self, act, n, record_slopes):
        net = nets.build(3, 5, 3, 2, seed=4, name="u")  # relu, then sigmoid layers
        pts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(n, 3))
        tape = ad.Tape()
        leaves = [tape.batch(pts[:, k]) for k in range(3)]
        out = net.forward(tape, leaves)
        y = {"sigmoid": ad.sigmoid, "relu": ad.relu}[act](out[0] + out[1])
        if record_slopes:
            tape.grad(y, leaves[:1])
        activated = [i for i in range(len(tape)) if tape._activation(i) is not None]
        recorded = [tape._recorded_slope(i) is not None for i in activated]
        loss = tape.mean(y * y + out[1])
        return tape.backward_values(loss, ["u"])["u"], recorded

    @pytest.mark.parametrize("n", [1, 6])  # one point, and a batch
    @pytest.mark.parametrize("act", ["sigmoid", "relu"])
    def test_recorded_slopes_give_same_gradients(self, act, n):
        computed, none = self.record(act, n, record_slopes=False)
        reused, every = self.record(act, n, record_slopes=True)
        assert none == [False] * 3 and every == [True] * 3  # two layers and y
        assert np.any(reused != 0.0)
        assert reused.tobytes() == computed.tobytes()


@pytest.mark.parametrize("act", ["sigmoid", "relu", None])
def test_activate_leaves_its_input_unchanged(act):
    z = np.array([-800.0, -1.5, -0.0, 0.0, 0.25, 3.0])
    before = z.copy()
    got = ad.activate(act, z)
    assert z.tobytes() == before.tobytes()
    if act is not None:
        assert got is not z
        assert got.tobytes() == ad.activate_in_place(act, before.copy()).tobytes()
