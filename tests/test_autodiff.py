"""Derivative engine checks against independent finite-difference oracles."""

import warnings

import numpy as np
import pytest
from vesselflow import autodiff as ad
from vesselflow import cli, nets
from vesselflow.config import preset
from vesselflow.physics import FluidLossGraph, LossWeights, draw_samples, network_fields
from vesselflow.trainer import build_networks


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


def value_of(part):
    """The value of a jet part: a DiffScalar's, or the plain number itself."""
    return part.value if isinstance(part, ad.DiffScalar) else part


def weight(tape, name, k):
    """Entry k of registered parameter group `name` as a scalar record
    node: the mean of a bias-free 1x1 layer on a one-point batch of 1. Its
    value is the entry itself and its gradient lands in entry k exactly."""
    one = tape.stack([tape.batch([1.0])])
    return tape.mean(tape.select(tape.layers(one, name, [(k, (1, 1), None, None)]), 0, 0))


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

    def test_plain_sqrt_of_a_negative_raises_as_recorded(self):
        # a plain number or array meets the recorded node's check, not a
        # NaN with a RuntimeWarning
        for x in (-2.0, np.array([4.0, -1.0])):
            with pytest.raises(ad.EvaluationError, match=r"\(sqrt\)"):
                ad.sqrt(x)


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
        assert ad.second_derivative(lambda x: x * x * x, [2.0], 0) == pytest.approx(12.0)

    def test_relu_linear_region(self):
        assert ad.second_derivative(lambda x: ad.relu(x), [1.0], 0) == 0.0

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
                got = ad.second_derivative(f, pt, i)
                want = central_second(feval, pt, i, i)
                assert got == pytest.approx(want, rel=1e-3, abs=1e-5)


class TestParamGrad:
    def test_square_param(self):
        tape = ad.Tape()
        theta = np.array([3.0])
        tape.register_params("w", theta)
        w = weight(tape, "w", 0)
        loss = w * w
        assert loss.tape.backward_values(loss, ["w"])["w"].tolist() == [6.0]

    def test_grad_of_input_derivative(self):
        # loss = (d/dx of w*x)^2 = w^2, so dloss/dw = 2w = 6
        tape = ad.Tape()
        theta = np.array([3.0])
        tape.register_params("w", theta)
        w = weight(tape, "w", 0)
        (x,) = ad.input_jets([tape.batch([1.7])], (0,))
        (dydx,) = (w * x).grads
        loss = dydx * dydx
        assert loss.tape.backward_values(loss, ["w"])["w"].tolist() == [6.0]

    def test_constant_loss_gives_zero_vector(self):
        tape = ad.Tape()
        theta = np.array([1.0, -2.0, 0.5])
        tape.register_params("w", theta)
        weight(tape, "w", 0)  # touched but unused
        x = tape.batch([2.0])
        loss = x * x
        assert loss.tape.backward_values(loss, ["w"])["w"].tolist() == [0.0, 0.0, 0.0]

    def test_third_order_mixed_against_fd(self):
        # Loss containing a second input-derivative, differentiated by params:
        # y = w * x^3; d2y/dx2 = 6 w x; loss = (6 w x)^2 -> dloss/dw = 72 w x^2
        tape = ad.Tape()
        theta = np.array([0.8])
        tape.register_params("w", theta)
        w = weight(tape, "w", 0)
        (x,) = ad.input_jets([tape.batch([1.3])], (0,), laplacian=(0,))
        g2 = (w * x * x * x).laplacian
        loss = g2 * g2
        got = loss.tape.backward_values(loss, ["w"])["w"][0]
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
        g = loss.tape.backward_values(loss, ["w"])["w"][0]
        want = 2.0 * 2.0 * np.mean(np.array([1.0, 4.0, 9.0]))
        assert g == pytest.approx(want, rel=1e-14)

    def test_mean_adjoint_reaches_every_point(self):
        # d mean(x + w) / dw = 1: the adjoint 1/n of the mean is repeated at
        # each of the n points before it is summed into w
        tape = ad.Tape()
        tape.register_params("w", np.array([2.0]))
        w = weight(tape, "w", 0)
        loss = tape.mean(tape.batch([1.0, 2.0, 3.0]) + w)
        assert loss.tape.backward_values(loss, ["w"])["w"].tolist() == [1.0]

    def test_recorded_gradient_sums_over_batch(self):
        # d mean(w x) / dw = mean(x) = 2 for a scalar w
        tape = ad.Tape()
        tape.register_params("w", np.array([0.5]))
        w = weight(tape, "w", 0)
        loss = tape.mean(w * tape.batch([1.0, 2.0, 3.0]))
        assert loss.tape.backward_values(loss, ["w"])["w"][0] == pytest.approx(2.0, rel=1e-15)


class TestReplay:
    def test_replay_is_bit_identical(self):
        tape = ad.Tape()
        x, y = ad.input_jets([tape.batch([0.7]), tape.batch([-1.2])], (0,), laplacian=(0,))
        jet = ad.exp(x * y) + ad.sqrt(x + 2.0) / (y * y + 1.0)
        out, (gx,), lap = jet.value, jet.grads, jet.laplacian
        v0, g0, l0 = out.value.item(), gx.value.item(), lap.value.item()
        tape.replay()
        assert (out.value.item(), gx.value.item(), lap.value.item()) == (v0, g0, l0)

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
            pts = ad.input_jets([tape.batch([v]) for v in (0.3, -0.9, 1.4)], (0, 1, 2))
            y = ad.exp(pts[0] * pts[1]) + ad.relu(pts[2]) * pts[0]
            return y.value.value.item(), [v.value.item() for v in y.grads]

        assert run() == run()


class TestIncrementalReplay:
    def test_nothing_changed_evaluates_nothing(self, monkeypatch):
        tape = ad.Tape()
        theta = np.array([0.4, -0.3])
        tape.register_params("w", theta)
        (x,) = ad.input_jets([tape.batch([0.5, -1.5, 2.0])], (0,), laplacian=(0,))
        ad.relu(weight(tape, "w", 0) * x) + ad.sin(x) * weight(tape, "w", 1)
        calls = []
        original = ad.Tape._eval

        def counted(self, i, *rest):
            calls.append(i)
            return original(self, i, *rest)

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
        (layer,) = [i for i, op in enumerate(tape._ops) if op == ad._LAYERS]
        calls = []
        original = ad.Tape._eval

        def counted(self, i, *rest):
            calls.append(i)
            return original(self, i, *rest)

        monkeypatch.setattr(ad.Tape, "_eval", counted)
        theta[0] = -0.0
        tape.replay()
        assert layer in calls and out.index in calls

    def test_group_modified_between_forwards_then_restored(self):
        def record(tape, net, modify):
            x = [tape.batch([0.1, 0.4, -0.2]), tape.batch([1.0, 0.5, 0.3])]
            first = [out.value for out in net.jet(tape, x)]
            theta0 = net.theta.copy()
            if modify:
                net.theta *= 1.5
            (second,) = net.jet(tape, x, (0,), laplacian=(0,))
            g = first[0] * second.grads[0] + second.laplacian
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

    def test_parameter_change_reaches_relu_layer_tangents(self):
        # the relu layer's first-derivative rows are its step times W G:
        # a change of its weights that flips the step at some points must
        # reach the derivative rows through the step, inside its layer run
        rng = np.random.default_rng(7)
        theta = rng.uniform(-1.5, 1.5, size=4 * 3 + 1 * 5)
        pts = rng.uniform(-1.0, 1.0, size=(6, 2))

        def record(tape):
            tape.register_params("w", theta)
            row = tape.stack([tape.batch(pts[:, k]) for k in range(2)])
            out = tape.layers(row, "w", [(0, (4, 2), 8, "relu"), (12, (1, 4), 16, None)],
                              (0, 1), laplacian=(0, 1))
            tape.select(out, 0, 1) * tape.select(out, 0, 2)

        def steps():
            return theta[:8].reshape(4, 2) @ pts.T + theta[8:12, None] > 0.0

        tape = ad.Tape()
        record(tape)
        before = steps()
        theta[:12] = rng.uniform(-1.5, 1.5, size=12)
        assert np.any(steps() != before)
        tape.replay()
        fresh = ad.Tape()
        record(fresh)
        assert len(tape) == len(fresh)
        for got, want in zip(tape._vals, fresh._vals):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_extended_record_replays_and_differentiates_like_a_fresh_build(self):
        # nodes recorded after a replay and a backward pass join the next
        # replay and backward pass as if the record had been built whole
        net = nets.build(4, 5, 2, 1, seed=3, name="w")
        pts = ([0.1, 0.4, -0.2], [1.0, 0.5, 0.3])

        def first(tape):
            x = [tape.batch(p) for p in pts]
            (out,) = net.jet(tape, x, (0,), laplacian=(0,))
            return x, tape.mean(out.value * out.laplacian)

        def second(tape, x, loss):
            (out,) = net.jet(tape, x, (0, 1))
            return loss + tape.mean(ad.sin(out.grads[1]) * out.value)

        tape = ad.Tape()
        x, loss = first(tape)
        net.theta *= 1.1
        tape.replay()
        tape.backward_values(loss, ["w"])
        total = second(tape, x, loss)
        net.theta *= 0.9
        tape.replay()
        fresh = ad.Tape()
        fresh_x, fresh_loss = first(fresh)
        fresh_total = second(fresh, fresh_x, fresh_loss)
        assert len(tape) == len(fresh)
        for got, want in zip(tape._vals, fresh._vals):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        got = tape.backward_values(total, ["w"])["w"]
        assert got.tobytes() == fresh.backward_values(fresh_total, ["w"])["w"].tobytes()
        assert np.any(got != fresh.backward_values(fresh_loss, ["w"])["w"])

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
        loss = ad.detach(w * w) * 3.0
        assert loss.tape.backward_values(loss, ["w"])["w"].tolist() == [0.0]

    def test_detach_keeps_value(self):
        tape = ad.Tape()
        x = tape.batch([1.5])
        assert ad.detach(x * 2.0).value.item() == 3.0


class TestTapeHygiene:
    def test_cross_tape_mixing_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        with pytest.raises(ad.RecordError):
            t1.batch([1.0]) + t2.batch([2.0])

    def test_mismatched_batches_rejected(self):
        tape = ad.Tape()
        with pytest.raises(ad.RecordError):
            tape.batch([1.0, 2.0]) + tape.batch([1.0, 2.0, 3.0])

    def test_numpy_array_operand_refused(self):
        # numpy defers to the handle's operators instead of mapping them
        # over the array into an array of objects
        x = ad.Tape().batch([1.0, 2.0])
        for use in (lambda: np.array([3.0, 4.0]) * x, lambda: x * np.array([3.0, 4.0]),
                    lambda: np.array([3.0, 4.0]) - x):
            with pytest.raises(TypeError):
                use()

    def test_zero_and_negative_zero_are_two_constants(self):
        # a value must not depend on which constants were recorded before it
        tape = ad.Tape()
        tape.constant(0.0)
        got = (tape.batch([3.0, -3.0]) * -0.0).value
        fresh = (ad.Tape().batch([3.0, -3.0]) * -0.0).value
        assert got.tobytes() == fresh.tobytes() == np.array([-0.0, 0.0]).tobytes()

    def test_op_that_raises_appends_nothing(self):
        # a node without a value would be evaluated again, and raise again,
        # by every replay after a change to the group it reads
        tape = ad.Tape()
        theta = np.array([0.0])
        tape.register_params("w", theta)
        x, w = tape.batch([1.0, 2.0]), weight(tape, "w", 0)
        size = len(tape)
        with pytest.raises(ad.EvaluationError, match="division by zero"):
            x / w
        assert len(tape) == size
        theta[0] = -0.0
        tape.replay()

    def test_mean_refuses_a_row(self):
        # a row holds one value per unit and point; its mean over the
        # lockstep batch is not defined
        tape = ad.Tape()
        row = tape.stack([tape.batch([1.0, 2.0, 3.0]), tape.batch([10.0, 20.0, 30.0])])
        with pytest.raises(ad.RecordError):
            tape.mean(row)

    def test_numpy_scalar_operand_is_a_constant(self):
        x = ad.Tape().batch([1.0, 2.0])
        for got in (np.float64(3.0) * x, x * np.float64(3.0)):
            assert isinstance(got, ad.DiffScalar)
            assert got.value.tobytes() == np.array([3.0, 6.0]).tobytes()


class TestForwardTangents:
    """Input derivatives are jets: of networks through their layer runs,
    and of elementwise expressions through jet arithmetic."""

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
        # through jets: every first derivative, each pure second derivative
        # (a one-direction Laplacian) and the r-z Laplacian
        net = nets.build(12, 20, 3, 2, seed=7)
        pts = self.network_points(net, 6, seed=42)
        h1, h2 = 1e-5, 1e-4

        def shifted(k, i, h):
            moved = pts.copy()
            moved[:, i] += h
            return net.evaluate(moved)[:, k]

        def pure_second(k, i):
            return (shifted(k, i, h2) - 2 * shifted(k, i, 0.0) + shifted(k, i, -h2)) / h2**2

        for laplacian in ((0,), (1,), (2,), (0, 1)):
            tape = ad.Tape()
            leaves = [tape.batch(pts[:, i]) for i in range(3)]
            for k, jet in enumerate(net.jet(tape, leaves, (0, 1, 2), laplacian)):
                for i in range(3):
                    fd = (shifted(k, i, h1) - shifted(k, i, -h1)) / (2 * h1)
                    np.testing.assert_allclose(jet.grads[i].value, fd, rtol=1e-5, atol=1e-7)
                fd = sum(pure_second(k, i) for i in laplacian)
                np.testing.assert_allclose(jet.laplacian.value, fd, rtol=1e-3, atol=1e-6)

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
                want = central_second(feval, pt, i, i)
                assert ad.second_derivative(f, pt, i) == pytest.approx(want, rel=1e-3, abs=1e-5)
            checked += 1

    def test_sigmoid_curvature_closed_form(self):
        tape = ad.Tape()
        (x,) = ad.input_jets([tape.batch([-3.0, -0.4, 0.0, 1.7])], (0,), laplacian=(0,))
        s = ad.sigmoid(x)
        sv = s.value.value
        np.testing.assert_allclose(s.grads[0].value, sv * (1 - sv), rtol=1e-14)
        np.testing.assert_allclose(s.laplacian.value, sv * (1 - sv) * (1 - 2 * sv), rtol=1e-14)

    def test_second_output_reuses_the_first_outputs_layers(self):
        # one jet carries every output: the second output adds only the
        # selects that read it
        net = nets.build(12, 20, 3, 2, seed=1)
        tape = ad.Tape()
        leaves = [tape.batch([0.1, -0.3]), tape.batch([0.5, 1.2]), tape.batch([0.0, 0.9])]
        u_z, u_r = net.jet(tape, leaves, (0,))
        layers = [i for i, op in enumerate(tape._ops) if op == ad._LAYERS]
        assert len(layers) == net.depth
        assert all(tape._args[u.index][0] == layers[-1]
                   for jet in (u_z, u_r) for u in (jet.value, *jet.grads))

    def test_second_derivative_nodes_per_layer_bounded(self):
        # a jet with first derivatives along every input and a Laplacian
        # is one layer run per layer, whatever it carries
        depth = 12
        net = nets.build(depth, 20, 3, 2, seed=1)
        tape = ad.Tape()
        leaves = [tape.batch([0.1, -0.3]), tape.batch([0.5, 1.2]), tape.batch([0.0, 0.9])]
        before = len(tape)
        jets = net.jet(tape, leaves, (0, 1, 2), laplacian=(0, 1))
        ops = tape._ops[before:]
        # the stack, the layers and one select per output row
        assert ops.count(ad._LAYERS) == depth
        assert len(ops) == 1 + depth + net.out_dim * (1 + 3 + 1)
        assert all(jet.laplacian is not None for jet in jets)


class TestJetArithmetic:
    """``Jet`` operators with jets, DiffScalars and numbers on either side."""

    @staticmethod
    def jets(laplacian=(0, 1)):
        tape = ad.Tape()
        leaves = [tape.batch([0.7, -1.3]), tape.batch([1.1, 0.4])]
        return tape, ad.input_jets(leaves, (0, 1), laplacian)

    @pytest.mark.parametrize("other", [2.5, np.float64(2.5)], ids=["float", "numpy"])
    def test_numbers_on_either_side(self, other):
        # numpy scalars defer to the jet instead of taking it as an object
        _, (x, _) = self.jets()
        for got, slope in ((other * x, 2.5), (x * other, 2.5), (other - x, -1.0),
                           (x / other, 0.4), (other + x, 1.0)):
            assert isinstance(got, ad.Jet)
            np.testing.assert_allclose(np.broadcast_to(value_of(got.grads[0]), (2,)), slope,
                                       rtol=1e-15)

    def test_diffscalar_on_either_side_is_a_constant(self):
        tape, (x, y) = self.jets()
        w = tape.batch([3.0, -2.0])
        for got, want in ((w * x, [3.0, -2.0]), (x * w, [3.0, -2.0]),
                          (w - x, [-1.0, -1.0]), (w / x, -w.value / x.value.value**2)):
            assert isinstance(got, ad.Jet)
            np.testing.assert_allclose(np.broadcast_to(value_of(got.grads[0]), (2,)), want,
                                       rtol=1e-15)
            assert got.grads[1] == 0.0

    def test_two_direction_laplacian_matches_fd(self):
        def f(a, b):
            return ad.exp(a * b) / (1.0 + a * a) - ad.sigmoid(b) * ad.sqrt(a + 3.0)

        def feval(pt):
            tape = ad.Tape()
            return f(*[tape.batch([v]) for v in pt]).value.item()

        rng = np.random.default_rng(11)
        for _ in range(10):
            pt = rng.uniform(-1.5, 1.5, size=2)
            tape = ad.Tape()
            jet = f(*ad.input_jets([tape.batch([v]) for v in pt], (0, 1), (0, 1)))
            want = central_second(feval, pt, 0, 0) + central_second(feval, pt, 1, 1)
            assert jet.laplacian.value.item() == pytest.approx(want, rel=1e-3, abs=1e-5)

    def test_zero_derivatives_record_nothing(self):
        # y is a jet input with no direction of its own: its derivatives
        # are exact zeros, so only the value is recorded
        tape = ad.Tape()
        x, y = ad.input_jets([tape.batch([0.5]), tape.batch([2.0])], (0,), laplacian=(0,))
        before = len(tape)
        out = ad.sin(y * y) / (y + 1.0) - y
        assert len(tape) - before == 6  # mul, sin, const 1, add, div, sub
        assert (out.grads, out.laplacian) == ((0.0,), 0.0)

    def test_jets_over_other_directions_refused(self):
        _, (x, _) = self.jets()
        _, (z, _) = self.jets(laplacian=(0,))
        with pytest.raises(ad.RecordError, match="different directions"):
            x * z

    def test_laplacian_outside_the_directions_rejected(self):
        leaves = [ad.Tape().batch([0.5])]
        with pytest.raises(ValueError,
                           match=r"^Laplacian directions \(1,\) are not among \(0,\)$"):
            ad.input_jets(leaves, (0,), laplacian=(1,))


class TestFusedLayer:
    """A layer run act(x W^T + b) computes what a layer without activation
    followed by ``ad.sigmoid`` or ``ad.relu`` computes, bit for bit: values
    and parameter gradients. With input derivatives, it computes what the
    per-neuron record of the same layers computes, each unit an affine sum
    of scalar nodes followed by the activation, all in jet arithmetic:
    first derivatives, the Laplacian and parameter gradients, to rounding
    (the two sum in different orders)."""

    LAYERS = ((4, 2), (4, 4), (1, 4))  # (rows, cols); the last is not activated

    def setup(self, five_points):
        rng = np.random.default_rng(3)
        theta = rng.uniform(-1.5, 1.5, size=sum(r * (c + 1) for r, c in self.LAYERS))
        pts = rng.uniform(-1.0, 1.0, size=(5, 2))
        tape = ad.Tape()
        tape.register_params("w", theta)
        n = 5 if five_points else 1
        return tape, [tape.batch(pts[:n, k]) for k in range(2)]

    def layers(self, act):
        """(offset, shape, bias offset, activation) of each layer."""
        off = 0
        for layer, (rows, cols) in enumerate(self.LAYERS):
            bias = off + rows * cols
            yield off, (rows, cols), bias, act if layer < len(self.LAYERS) - 1 else None
            off = bias + rows

    def record_values(self, act, fused, five_points):
        tape, leaves = self.setup(five_points)
        activate = {"sigmoid": ad.sigmoid, "relu": ad.relu}
        x = tape.stack(leaves)
        if fused:
            x = tape.layers(x, "w", list(self.layers(act)))
        else:
            for off, shape, bias, layer_act in self.layers(act):
                x = tape.layers(x, "w", [(off, shape, bias, None)])
                if layer_act is not None:
                    units = [activate[layer_act](tape.select(x, k, 0))
                             for k in range(shape[0])]
                    x = tape.stack(units)
        out = tape.select(x, 0, 0)
        loss = tape.mean(out * out + out)
        grads = tape.backward_values(loss, ["w"])
        return [np.asarray(v.value) for v in (out, loss)], grads["w"]

    @pytest.mark.parametrize("five_points", [False, True])  # else one point
    @pytest.mark.parametrize("act", ["sigmoid", "relu"])
    def test_equals_affine_then_activation(self, act, five_points):
        fused_values, fused_grad = self.record_values(act, True, five_points)
        plain_values, plain_grad = self.record_values(act, False, five_points)
        for got, want in zip(fused_values, plain_values):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.any(fused_grad != 0.0)
        assert fused_grad.tobytes() == plain_grad.tobytes()

    def record_jets(self, act, fused, five_points, third_order):
        tape, leaves = self.setup(five_points)
        activate = {"sigmoid": ad.sigmoid, "relu": ad.relu, None: lambda v: v}
        if fused:
            x = tape.layers(tape.stack(leaves), "w", list(self.layers(act)), (0, 1), (0, 1))
        else:
            x = ad.input_jets(leaves, (0, 1), laplacian=(0, 1))
            for off, (rows, cols), bias, layer_act in self.layers(act):
                x = [activate[layer_act](
                    sum((weight(tape, "w", off + r * cols + c) * x[c] for c in range(cols)),
                        weight(tape, "w", bias + r)))
                     for r in range(rows)]
        if fused:
            out, d0, d1, lap = (tape.select(x, 0, part) for part in range(4))
        else:
            out, (d0, d1), lap = x[0].value, x[0].grads, x[0].laplacian
        # the third order: a loss reading the Laplacian differentiates the
        # activations' second derivatives once more
        terms = out * out + d0 * d1 + (lap * lap if third_order else 0.0)
        loss = tape.mean(terms)
        grads = tape.backward_values(loss, ["w"])
        # a per-neuron part that is zero at every point is the number 0.0
        values = [np.asarray(value_of(v)) for v in (out, d0, d1, lap, loss)]
        return values, grads["w"]

    def assert_same_jets(self, act, five_points, third_order):
        fused_values, fused_grad = self.record_jets(act, True, five_points, third_order)
        plain_values, plain_grad = self.record_jets(act, False, five_points, third_order)
        assert len(fused_values) == len(plain_values) == 5
        for got, want in zip(fused_values, plain_values):
            # a per-neuron derivative equal at every point lacks the batch axis
            np.testing.assert_allclose(got, np.broadcast_to(want, got.shape),
                                       rtol=1e-12, atol=1e-14)
        assert np.any(fused_grad != 0.0)
        np.testing.assert_allclose(fused_grad, plain_grad, rtol=1e-12,
                                   atol=1e-13 * np.max(np.abs(plain_grad)))
        return fused_values

    @pytest.mark.parametrize("five_points", [False, True])
    @pytest.mark.parametrize("act", ["sigmoid", "relu"])
    def test_jet_equals_per_neuron_record(self, act, five_points):
        self.assert_same_jets(act, five_points, third_order=False)

    @pytest.mark.parametrize("five_points", [False, True])
    @pytest.mark.parametrize("act", ["sigmoid", "relu"])
    def test_third_order_equals_affine_then_activation(self, act, five_points):
        values = self.assert_same_jets(act, five_points, third_order=True)
        # relu units are piecewise linear: their Laplacian is zero
        assert np.any(values[3] != 0.0) == (act == "sigmoid")

    def test_unknown_activation_rejected(self):
        tape = ad.Tape()
        tape.register_params("w", np.ones(2))
        x = tape.stack([tape.batch([1.0])])
        with pytest.raises(ad.RecordError, match="unknown activation"):
            tape.layers(x, "w", [(0, (1, 1), 1, "tanh")], (0,))


class TestLayerKernelBits:
    """``ad.layer_jet`` and ``ad._layer_adjoint`` give, bit for bit, the
    layer arithmetic as first written, kept here as the reference: each
    slope, curvature, square and product a new array, and the Laplacian's
    squares summed from 0. The inputs hold saturated pre-activations
    (|a| >= 40), exact zeros and -0.0."""

    @staticmethod
    def reference_slope(act, y):
        return y * (1.0 - y) if act == "sigmoid" else np.greater(y, 0.0).astype(np.float64)

    def reference_layer_jet(self, jet, w, b, act, laplacian):
        out = np.empty((len(jet), w.shape[0], jet.shape[2]))
        y = out[0]
        np.matmul(w, jet[0], out=y)
        if b is not None:
            y += b[:, None]
        ad.activate_in_place(act, y)
        if len(out) == 1:
            return out
        derivs = out[1:]
        np.matmul(w, jet[1:], out=derivs)
        if act is None:
            return out
        s1 = self.reference_slope(act, y)
        curvature = None
        if act == "sigmoid" and laplacian:
            curvature = (sum(derivs[j] * derivs[j] for j in laplacian)
                         * (y * (1.0 - y) * (1.0 - 2.0 * y)))
        derivs *= s1
        if curvature is not None:
            derivs[-1] += curvature
        return out

    def reference_adjoint(self, adjoint, y, jet, w, act, laplacian):
        if act is None:
            return adjoint
        s1 = self.reference_slope(act, y)
        if act == "relu" or len(adjoint) == 1:
            adjoint *= s1
            return adjoint
        derivs = w @ jet[1:]
        curve = 1.0 - 2.0 * y
        inner = np.einsum("j...,j...->...", adjoint[1:], derivs)
        inner *= curve
        if laplacian:
            lap_bar = adjoint[-1]
            squares = sum(derivs[j] * derivs[j] for j in laplacian)
            inner += (1.0 - 6.0 * s1) * (lap_bar * squares)
            twice = 2.0 * (s1 * curve) * lap_bar
        adjoint *= s1
        if laplacian:
            for j in laplacian:
                adjoint[1 + j] += twice * derivs[j]
        adjoint[0] += s1 * inner
        return adjoint

    @staticmethod
    def inputs(rows, seed):
        """A jet of `rows` rows over 3 units and 16 points, a 4 x 3 layer
        and an adjoint of its output jet."""
        rng = np.random.default_rng(seed)
        jet = rng.standard_normal((rows, 3, 16))
        jet[0, :, :4] *= 80.0
        jet[0, :, 4] = 0.0
        jet[0, :, 5] = -0.0
        jet[1:, :, 6] = 0.0
        jet[1:, 0, 7] = -0.0
        w = rng.standard_normal((4, 3))
        b = np.array([0.0, -0.0, 0.7, -45.0])
        adjoint = rng.standard_normal((rows, 4, 16))
        adjoint[:, :, 8] = 0.0
        adjoint[:, 1, 9] = -0.0
        return jet, w, b, adjoint

    @staticmethod
    def assert_same_bits(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    # (rows, Laplacian positions): a value alone; first derivatives alone;
    # d2/dt2 along one direction; the r-z Laplacian; the plaque wall's
    # (R, Z, T) with a Laplacian along T
    @pytest.mark.parametrize("rows,laplacian", [
        (1, ()), (2, ()), (3, ()), (4, ()), (3, (0,)), (4, (0, 1)), (5, (2,)), (5, (0, 1)),
    ])
    @pytest.mark.parametrize("act", ["sigmoid", "relu", None])
    def test_same_bits_as_the_reference(self, act, rows, laplacian):
        for seed, bias in ((0, True), (1, False), (2, True)):
            jet, w, b, adjoint = self.inputs(rows, seed)
            b = b if bias else None
            pre = w @ jet[0] + (0.0 if b is None else b[:, None])
            assert np.any(pre >= 40.0) and np.any(pre <= -40.0)
            before = jet.copy()
            want = self.reference_layer_jet(jet, w, b, act, laplacian)
            self.assert_same_bits(ad.layer_jet(jet, w, b, act, laplacian), want)
            y = want[0].copy()
            if act == "sigmoid":
                assert np.any(y == 1.0) and np.any(y < 1e-17)
            given = adjoint.copy()
            got = ad._layer_adjoint(given, y, jet, w, act, laplacian)
            assert got is given  # written over the output jet's adjoint
            self.assert_same_bits(
                got, self.reference_adjoint(adjoint.copy(), y, jet, w, act, laplacian))
            self.assert_same_bits(jet, before)
            self.assert_same_bits(y, want[0])  # the value row is only read

    @staticmethod
    def fold_inputs(rows):
        """A jet of `rows` rows over 20 units and 16 points, and (W, b)
        pairs of a 4 x 20 layer: weights and biases scaled by 1e+-150, zero
        and -0.0 biases, W x + b = 0 exactly, and pre-activations below
        -709.78, where exp(-a) overflows."""
        rng = np.random.default_rng(3)
        jet = rng.standard_normal((rows, 20, 16))
        jet[0, :, 0] = rng.integers(-4, 5, size=20)
        jet[0, :, 1] = 0.0
        jet[0, :, 2] = -0.0
        w = rng.standard_normal((4, 20))
        b = rng.standard_normal(4)
        cases = [(w * ws, b * bs) for ws in (1e150, 1.0, 1e-150) for bs in (1e150, 1.0, 1e-150)]
        whole = rng.integers(-4, 5, size=(4, 20)).astype(np.float64)
        cases += [(w, np.zeros(4)), (w, np.full(4, -0.0)),
                  (whole, -(whole @ jet[0, :, 0])),  # exact integers: zero in column 0
                  (w, np.array([-800.0, -1e4, 0.5, 800.0]))]
        return jet, cases

    # the value row of a sigmoid layer is computed as -b - W x, then the
    # sigmoid's tail: the same bits as the activation of W x + b
    @pytest.mark.parametrize("rows,laplacian", [(1, ()), (5, (0, 1))])
    @pytest.mark.parametrize("act", ["sigmoid", "relu", None])
    def test_value_row_is_the_activation_of_the_product(self, act, rows, laplacian):
        jet, cases = self.fold_inputs(rows)
        pres = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w, b in cases:
                for bias in (b, None):
                    pre = w @ jet[0]
                    if bias is not None:
                        pre = pre + bias[:, None]
                    pres.append(pre)
                    got = ad.layer_jet(jet, w, bias, act, laplacian)
                    self.assert_same_bits(got[0], ad.activate(act, pre))
        pres = np.concatenate(pres, axis=1)
        assert np.any(pres == 0.0) and np.any(pres < -709.78) and np.any(pres > 1e149)
        assert np.any((pres != 0.0) & (np.abs(pres) < 1e-149))

    @pytest.mark.parametrize("act", ["sigmoid", "relu", None])
    def test_new_arrays_start_on_a_64_byte_line(self, act):
        # and a misaligned output array gets the same bits
        for rows, laplacian in ((1, ()), (3, ()), (4, (0, 1)), (5, (2,))):
            jet, w, b, _ = self.inputs(rows, 0)
            got = ad.layer_jet(jet, w, b, act, laplacian)
            assert got.ctypes.data % 64 == 0
            pool = np.empty(got.size + 8)
            start = (-pool.ctypes.data % 64 + 16) // 8
            off_line = pool[start:start + got.size].reshape(got.shape)
            self.assert_same_bits(ad.layer_jet(jet, w, b, act, laplacian, out=off_line), got)


    # numpy's ufunc buffer as every command sets it, against numpy's
    # default: buffering changes how an elementwise op is iterated, not
    # what it computes
    @pytest.mark.parametrize("rows,laplacian", [(1, ()), (5, (0, 1))])
    @pytest.mark.parametrize("act", ["sigmoid", "relu", None])
    def test_same_bits_under_the_command_buffer(self, act, rows, laplacian):
        size = cli._UFUNC_BUFSIZE
        assert np.getbufsize() != size
        rng = np.random.default_rng(5)
        w = rng.standard_normal((20, 20))
        for n in (size - 3, size, size + 5):  # rows below, at and above the buffer
            jet = rng.standard_normal((rows, 20, n))
            jet[0] *= 4.0
            adjoint = rng.standard_normal((rows, 20, n))
            for b in (rng.standard_normal(20), None):
                want = ad.layer_jet(jet, w, b, act, laplacian)
                want_adjoint = ad._layer_adjoint(adjoint.copy(), want[0], jet, w, act, laplacian)
                with cli._ufunc_buffer():
                    assert np.getbufsize() == size
                    got = ad.layer_jet(jet, w, b, act, laplacian)
                    got_adjoint = ad._layer_adjoint(adjoint.copy(), got[0], jet, w, act,
                                                    laplacian)
                self.assert_same_bits(got, want)
                self.assert_same_bits(got_adjoint, want_adjoint)

    def test_flow_record_same_bits_under_the_command_buffer(self):
        # the cylinder's flow record: construction, a replay at moved
        # parameters and the backward pass, with interior rows above the
        # command's buffer and boundary rows below it
        size = cli._UFUNC_BUFSIZE
        config = preset("cylinder")

        def run():
            networks = build_networks(config, 0)
            samples = draw_samples(config.vessel_geometry(), size + 44, size // 2 + 1,
                                   size // 2 + 1, seed=0)
            flow, disp = network_fields(networks, config.training.rigid_wall)
            graph = FluidLossGraph(flow, disp, samples, config.vessel_geometry(),
                                   config.fluid_properties(), config.inlet_factor(),
                                   LossWeights(ns=1e-3), config.eps_r)
            built = graph.total.value
            for name in ("u", "p"):
                theta = networks[name].theta
                theta += 1e-3 * np.random.default_rng(7).standard_normal(theta.shape)
            graph.replay()
            grads = graph.param_grads(["u", "p"])
            return [built, graph.total.value, grads["u"], grads["p"]]

        want = run()
        with cli._ufunc_buffer():
            got = run()
        assert want[0] != want[1]  # the replay moved the loss
        for g, w in zip(got, want):
            self.assert_same_bits(np.asarray(g), np.asarray(w))


class TestLayerReaders:
    """The backward pass scales a layer run's adjoint in place, so only a
    select and the next run, which each build a fresh adjoint, may read a
    run; the record refuses every other use."""

    def layer(self):
        tape = ad.Tape()
        tape.register_params("w", np.array([0.5, -1.5, 0.25, 2.0]))
        x = tape.stack([tape.batch([0.3, -0.7])])
        return tape, x, tape.layers(x, "w", [(0, (2, 1), 2, "sigmoid")])

    @pytest.mark.parametrize("use", [
        lambda tape, y: y + y,
        lambda tape, y: y * 2.0,
        lambda tape, y: -y,
        lambda tape, y: ad.sigmoid(y),
        lambda tape, y: tape.mean(y),
        lambda tape, y: tape.stack([y]),
        lambda tape, y: ad.detach(y),
        lambda tape, y: tape.part(y, 0, 1),
    ], ids=["add", "mul", "neg", "sigmoid", "mean", "stack", "detach", "part"])
    def test_layer_refused_as_operand(self, use):
        tape, _, y = self.layer()
        with pytest.raises(ad.RecordError):
            use(tape, y)

    def test_select_reads_a_jet_by_part_and_a_row_without(self):
        tape, x, y = self.layer()
        with pytest.raises(ad.RecordError):
            tape.select(y, 0)
        with pytest.raises(ad.RecordError):
            tape.select(tape.stack([tape.batch([1.0])]), 0, 0)

    def test_units_of_one_layer_read_through_selects(self):
        # both units of one layer, and the same unit twice: each adjoint
        # the layer receives is its own, so none is scaled twice
        tape, _, y = self.layer()
        a, b = tape.select(y, 0, 0), tape.select(y, 1, 0)
        loss = tape.mean(a + b + a * b + a)
        grad = tape.backward_values(loss, ["w"])["w"]
        x = np.array([0.3, -0.7])
        s = 1.0 / (1.0 + np.exp(-(np.outer(x, [0.5, -1.5]) + [0.25, 2.0])))
        da, db = 2.0 + s[:, 1], 1.0 + s[:, 0]  # d loss/d a and d loss/d b per point
        slope = s * (1.0 - s)
        want = np.array([np.mean(da * slope[:, 0] * x), np.mean(db * slope[:, 1] * x),
                         np.mean(da * slope[:, 0]), np.mean(db * slope[:, 1])])
        np.testing.assert_allclose(grad, want, rtol=1e-14)


class TestPart:
    """`Tape.part`: points lo:hi of a batch, which a record that reads a
    network once over several point sets hands to each set."""

    def test_value_is_a_view_of_the_points(self):
        tape = ad.Tape()
        x = tape.batch(np.arange(6.0))
        y = tape.part(x, 2, 5)
        assert y.value.tolist() == [2.0, 3.0, 4.0]
        assert np.shares_memory(y.value, x.value)

    def test_mean_adjoint_is_spread_over_the_part_alone(self):
        # point k of x is entry k of "w", so the gradient of "w" is the
        # adjoint of x at each point
        n, lo, hi = 6, 1, 4
        tape = ad.Tape()
        tape.register_params("w", np.arange(1.0, n + 1.0))
        x = sum(weight(tape, "w", k) * tape.batch(np.eye(n)[k]) for k in range(n))
        grad = tape.backward_values(tape.mean(tape.part(x, lo, hi)), ["w"])["w"]
        want = np.zeros(n)
        want[lo:hi] = 1.0 / (hi - lo)
        assert grad.tolist() == want.tolist()

    def test_replay_after_a_change_equals_a_fresh_record(self):
        net = nets.build(4, 6, 3, 2, seed=3, name="u")
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(10, 3))

        def record():
            tape = ad.Tape()
            u_z, u_r = net.jet(tape, [tape.batch(pts[:, k]) for k in range(3)], (0,))
            parts = [tape.part(u_z.value, 0, 4), tape.part(u_r.grads[0], 4, 10)]
            return tape, parts + [tape.mean(parts[0] * parts[0]) + tape.mean(parts[1])]

        tape, got = record()
        net.theta += 0.1 * np.random.default_rng(4).standard_normal(net.theta.size)
        tape.replay()
        fresh, want = record()
        for a, b in zip(got, want):
            assert np.asarray(a.value).tobytes() == np.asarray(b.value).tobytes()
        for a, b in zip(tape._vals, fresh._vals):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_scalar_passes_through(self):
        tape = ad.Tape()
        c = tape.constant(2.5)
        assert tape.part(c, 3, 7) is c
        m = tape.mean(tape.batch([1.0, 2.0]))
        assert tape.part(m, 0, 1) is m

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (2, 2), (3, 1), (0, 4)])
    def test_points_outside_the_batch_refused(self, lo, hi):
        tape = ad.Tape()
        with pytest.raises(ad.RecordError, match="no part"):
            tape.part(tape.batch([1.0, 2.0, 3.0]), lo, hi)


class TestLayerRuns:
    """A network read is a chain of layer runs, one per layer for a group
    the record trains and one of every layer otherwise: the run length
    changes neither a value nor a parameter gradient, through the layers or
    back through the row the first run seeds."""

    @staticmethod
    def read(net, pts, trained):
        """A depth-6 read with first derivatives and a Laplacian, on a
        record training `trained`, with the first input scaled by the
        parameter group "s"; its jet's parts and the mean of their
        squares."""
        tape = ad.Tape(trained=trained)
        tape.register_params("s", np.array([0.7]))
        tape.register_params(net.name, net.theta)
        scaled = weight(tape, "s", 0) * tape.batch(pts[:, 0])
        row = tape.stack([scaled, tape.batch(pts[:, 1]), tape.batch(pts[:, 2])])
        out = tape.layers(row, net.name, net._layers, (0, 1, 2), laplacian=(0, 1))
        parts = [tape.select(out, k, part) for k in range(net.out_dim) for part in range(5)]
        return parts, tape.mean(sum((p * p for p in parts[1:]), parts[0] * parts[0]))

    def test_every_split_gives_the_same_bits(self):
        net = nets.build(6, 8, 3, 2, seed=4, name="u")
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(9, 3))
        per_layer, loss = self.read(net, pts, None)
        want = loss.tape.backward_values(loss, ["u", "s"])
        assert all(np.any(g != 0.0) for g in want.values())
        whole, loss = self.read(net, pts, ("s",))
        runs = [len(args[2]) for op, args in zip(loss.tape._ops, loss.tape._args)
                if op == ad._LAYERS and args[1] == "u"]
        assert runs == [net.depth]
        for got, ref in zip(whole, per_layer):
            assert got.value.tobytes() == ref.value.tobytes()
        got = loss.tape.backward_values(loss, ["u", "s"])
        for group in want:
            assert got[group].tobytes() == want[group].tobytes(), group

    def test_read_refuses_a_run_as_its_row(self):
        net = nets.build(6, 8, 3, 2, seed=4, name="u")
        tape = ad.Tape()
        tape.register_params("u", net.theta)
        row = tape.stack([tape.batch([0.1, 0.2])] * 3)
        read = tape.layers(row, "u", net._layers, (0, 1), laplacian=(0,))
        with pytest.raises(ad.RecordError, match="takes a row made by stack"):
            tape.layers(read, "u", net._layers[-1:])

    def test_stack_refuses_a_row_of_constants(self):
        tape = ad.Tape()
        with pytest.raises(ad.RecordError, match="needs a batch"):
            tape.stack([tape.constant(0.5), tape.constant(1.0)])
        # one batch among them is a row, the constants repeated at each point
        row = tape.stack([tape.constant(0.5), tape.batch([1.0, 2.0])])
        assert row.value.tolist() == [[0.5, 0.5], [1.0, 2.0]]


@pytest.mark.parametrize("act", ["sigmoid", "relu", None])
def test_activate_leaves_its_input_unchanged(act):
    z = np.array([-800.0, -1.5, -0.0, 0.0, 0.25, 3.0])
    before = z.copy()
    got = ad.activate(act, z)
    assert z.tobytes() == before.tobytes()
    if act is not None:
        assert got is not z
        assert got.tobytes() == ad.activate_in_place(act, before.copy()).tobytes()
