"""Network construction, activations, parameter accounting and checkpoints."""

import gc
import json
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest

from vesselflow import autodiff as ad
from vesselflow import nets
from vesselflow.analysis import (
    EvaluationGrid, export_fields, poiseuille_oracle, relative_error, speed_field,
)
from vesselflow.domain import VesselGeometry
from vesselflow.physics import NetworkDisplacement, NetworkFlow

# Combined sizes of the split velocity/pressure pair for the two width
# families, plus the single-network variant, keyed by (depth, total width).
SPLIT_SIZES = {
    (6, 60): 8583, (8, 60): 12703, (10, 60): 16823, (12, 60): 20943, (14, 60): 25063,
    (6, 30): 2293, (8, 30): 3353, (10, 30): 4413, (12, 30): 5473, (14, 30): 6533,
}
SINGLE_SIZES = {(12, 30): 9513}


class TestParamCount:
    @pytest.mark.parametrize("arch,want", sorted(SPLIT_SIZES.items()))
    def test_split_family(self, arch, want):
        depth, total = arch
        assert nets.split_param_count(depth, total) == want

    @pytest.mark.parametrize("arch,want", sorted(SINGLE_SIZES.items()))
    def test_single_network(self, arch, want):
        depth, width = arch
        assert nets.single_param_count(depth, width) == want

    def test_count_matches_formula(self):
        net = nets.build(5, 7, 3, 2, seed=1)
        want = 7 * 4 + 7 * 8 * 3 + 2 * 8
        assert nets.param_count(net.widths) == want == len(net.theta)


class TestSchedule:
    def test_tags(self):
        net = nets.build(6, 4, 3, 1, seed=0)
        assert net.activations == ["sigmoid", "relu", "sigmoid", "relu", "sigmoid", None]

    def test_even_layers_are_exact_relu(self):
        net = nets.build(4, 5, 2, 1, seed=3)
        x = np.array([0.4, -0.7])
        h = 1.0 / (1.0 + np.exp(-(net.weight(0) @ x + net.bias(0))))
        pre2 = net.weight(1) @ h + net.bias(1)
        h2 = np.maximum(pre2, 0.0)
        h3 = 1.0 / (1.0 + np.exp(-(net.weight(2) @ h2 + net.bias(2))))
        out = net.weight(3) @ h3 + net.bias(3)
        assert nets.FieldNetwork.evaluate(net, x[None, :])[0] == pytest.approx(out, rel=1e-15)

    def test_depth_below_two_rejected(self):
        with pytest.raises(ValueError):
            nets.build(1, 4, 3, 1, seed=0)


class TestForward:
    def test_zero_final_layer_gives_zero_output(self):
        net = nets.build(4, 6, 3, 2, seed=5)
        nets.zero_init_output(net)
        tape = ad.Tape()
        out = net.jet(tape, [tape.batch([v]) for v in (0.3, -1.0, 0.5)])
        assert [o.value.value.item() for o in out] == [0.0, 0.0]

    def test_zero_init_gradient_wrt_input_is_zero(self):
        net = nets.build(4, 6, 3, 1, seed=5)
        nets.zero_init_output(net)
        tape = ad.Tape()
        leaves = [tape.batch([v]) for v in (0.3, -1.0, 0.5)]
        (out,) = net.jet(tape, leaves, (0, 1, 2))
        assert [v.value.item() for v in out.grads] == [0.0, 0.0, 0.0]

    def test_zero_init_final_bias_grad_of_squared_output(self):
        # output is 0, so d(out^2)/db_final = 2*out = 0 by the chain rule
        net = nets.build(3, 4, 2, 1, seed=2)
        nets.zero_init_output(net)
        tape = ad.Tape()
        out = net.jet(tape, [tape.batch([0.2]), tape.batch([0.8])])[0].value
        loss = out * out
        g = tape.backward_values(loss, [net.name])[net.name]
        b_final_index = len(net.theta) - 1
        assert g[b_final_index] == 0.0

    def test_two_layer_hand_case(self):
        # depth 2, widths 1/1/1, all parameters set by hand:
        # out = w2 * sigmoid(w1 * x + b1) + b2
        net = nets.build(2, 1, 1, 1, seed=0, name="tiny")
        net.weight(0)[:] = 1.0
        net.bias(0)[:] = 1.0
        net.weight(1)[:] = 2.0
        net.bias(1)[:] = -0.5
        tape = ad.Tape()
        out = net.jet(tape, [tape.batch([0.0])])[0].value
        want = 2.0 * (1.0 / (1.0 + np.exp(-1.0))) - 0.5
        assert out.value.item() == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("width", [6, 20, 30])
    @pytest.mark.parametrize("n", [1, 40, 1000])
    def test_recorded_forward_matches_numpy_forward(self, width, n):
        # One forward arithmetic: on a batch the record runs the products
        # and activations that `evaluate` runs, so they agree bit for bit.
        net = nets.build(12, width, 3, 2, seed=11)
        pts = np.random.default_rng(n).uniform(-1, 1, size=(n, 3))
        ref = net.evaluate(pts)
        tape = ad.Tape()
        leaves = [tape.batch(pts[:, i]) for i in range(3)]
        out = net.jet(tape, leaves)
        got = np.stack([o.value.value for o in out], axis=1)
        assert np.array_equal(got, ref)

    def test_evaluate_large_inputs_without_warning(self):
        # far out, exp(-x) overflows to inf and the sigmoid saturates at 0
        net = nets.build(4, 8, 3, 1, seed=2)
        pts = np.array([[1e4, -1e4, 1e4], [-1e4, 1e4, -1e4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = net.evaluate(pts)
        assert np.all(np.isfinite(out))

    def test_evaluate_leaves_points_unchanged(self):
        # contiguous float64 points reach the first product as they are
        net = nets.build(4, 8, 3, 2, seed=3)
        pts = np.random.default_rng(2).uniform(-1, 1, size=(9, 3))
        before = pts.copy()
        net.evaluate(pts)
        assert pts.tobytes() == before.tobytes()

    def test_evaluate_reads_in_blocks(self):
        # each block of rows is a read of its own: bit for bit the record
        # of that block's rows
        net = nets.build(12, 20, 3, 2, seed=7)
        n = 2 * nets.READ_BLOCK + 37
        pts = np.random.default_rng(7).uniform(-1, 1, size=(n, 3))
        got = net.evaluate(pts)
        want = np.concatenate([
            np.stack([o.value.value for o in jet_at(net, pts[lo:lo + nets.READ_BLOCK], ())],
                     axis=1)
            for lo in range(0, n, nets.READ_BLOCK)])
        assert got.shape == (n, 2)
        assert got.tobytes() == want.tobytes()

    def test_export_memory_bounded_by_the_block(self, tmp_path):
        # One slice of eight blocks through width-64 networks. Per cell the
        # export holds its (r, z) text and a few float columns, under 256
        # bytes; per block, the block's points and a layer's input and
        # output, three width-64 arrays of READ_BLOCK rows at most. A read
        # of the whole slice would hold two 8 MiB layer arrays at once.
        width = 64
        flow = NetworkFlow(nets.build(4, width, 3, 2, seed=1, name="u"),
                           nets.build(4, width, 3, 1, seed=2, name="p"))
        disp = NetworkDisplacement(nets.build(4, width, 3, 1, seed=3, name="d"))
        grid = EvaluationGrid.build(VesselGeometry(), 128, 128, 1)
        assert len(grid) == 8 * nets.READ_BLOCK
        bound = 256 * len(grid) + 3 * 8 * width * nets.READ_BLOCK
        tracemalloc.start()
        try:
            export_fields(tmp_path / "fields.csv", flow, disp, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_speed_field_memory_bounded_by_the_block(self):
        # The error of one slice of eight blocks through width-64 networks,
        # as `evaluate` scores it. Per cell the error holds the speeds, the
        # reference and a few float temporaries, under 256 bytes; per block,
        # a record's inputs and outputs and a layer run's input and output,
        # within three width-64 arrays of READ_BLOCK rows. A record of the
        # whole slice would hold two 8 MiB layer arrays at once.
        width = 64
        flow = NetworkFlow(nets.build(4, width, 3, 2, seed=1, name="u"),
                           nets.build(4, width, 3, 1, seed=2, name="p"))
        disp = NetworkDisplacement(nets.build(4, width, 3, 1, seed=3, name="d"))
        geometry = VesselGeometry()
        grid = EvaluationGrid.build(geometry, 128, 128, 1)
        assert len(grid) == 8 * nets.READ_BLOCK
        bound = 256 * len(grid) + 3 * 8 * width * nets.READ_BLOCK
        field = speed_field(flow, disp)

        def oracle(r, z, t):
            return np.abs(poiseuille_oracle(r, 20.0, geometry.radius))

        tracemalloc.start()
        try:
            error = relative_error(field, oracle, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(error)
        assert peak < bound

    @pytest.mark.parametrize("seven_points", [False, True])  # else one point
    def test_record_size_independent_of_width(self, seven_points):
        # One node per layer, not per neuron: the record does not grow with
        # the width, and it still computes what the plain forward does.
        depth = 12
        pts = np.random.default_rng(1).uniform(-1, 1, size=(7 if seven_points else 1, 3))
        counts = []
        for width in (6, 30):
            net = nets.build(depth, width, 3, 2, seed=width)
            tape = ad.Tape()
            leaves = [tape.batch(pts[:, i]) for i in range(3)]
            out = net.jet(tape, leaves)
            counts.append(len(tape) - len(leaves))
            got = np.stack([o.value.value for o in out], axis=1)
            ref = net.evaluate(pts)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        # stack, one layer run per layer, one select per output
        assert counts == [1 + depth + 2] * 2

    def test_input_dimension_checked(self):
        net = nets.build(3, 4, 3, 1, seed=0)
        tape = ad.Tape()
        with pytest.raises(ValueError):
            net.jet(tape, [tape.batch([0.0])])


def jet_at(net, pts, directions, laplacian=()):
    """The network's jets at the rows of `pts`, on a record of their own."""
    tape = ad.Tape()
    leaves = [tape.batch(pts[:, i]) for i in range(net.in_dim)]
    return net.jet(tape, leaves, directions, laplacian)


def safe_points(net, count, seed, margin=1e-3):
    """Points in [-1, 1]^3 whose relu units stay `margin` off their kinks."""
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        pt = rng.uniform(-1.0, 1.0, size=3)
        if net.relu_margin(pt) >= margin:
            pts.append(pt)
    return np.array(pts)


class TestDerivatives:
    def test_second_derivatives_match_fd_away_from_kinks(self):
        net = nets.build(12, 30 * 2 // 3, 3, 2, seed=7)
        pts = safe_points(net, 12, seed=42, margin=1e-6)

        def feval(pts):
            return net.evaluate(pts)[:, 0]

        h = 1e-4
        for i in range(3):
            (u_z, _) = jet_at(net, pts, (i,), laplacian=(i,))
            hi, lo = pts.copy(), pts.copy()
            hi[:, i] += h
            lo[:, i] -= h
            want = (feval(hi) - 2 * feval(pts) + feval(lo)) / h**2
            for got, fd in zip(u_z.laplacian.value, want):
                assert got == pytest.approx(fd, rel=1e-3, abs=1e-6)


class TestJet:
    """``FieldNetwork.jet``: a chain of layer runs carries the value, the
    first derivatives and the Laplacian."""

    @pytest.mark.parametrize("n", [1, 40, 1000, 4096])  # 4096: a field-eval slice
    def test_value_equals_evaluate(self, n):
        net = nets.build(12, 20, 3, 2, seed=11)
        pts = np.random.default_rng(n).uniform(-1, 1, size=(n, 3))
        ref = net.evaluate(pts)
        for directions, laplacian in (((0, 1, 2), (0, 1)), ((2,), (2,)), ((), ())):
            jets = jet_at(net, pts, directions, laplacian)
            got = np.stack([jet.value.value for jet in jets], axis=1)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("depth", [6, 12])
    @pytest.mark.parametrize("laplacian", [(0, 1), (2,)])
    def test_derivatives_match_central_differences(self, depth, laplacian):
        net = nets.build(depth, 20, 3, 2, seed=depth)
        pts = safe_points(net, 8, seed=5)
        h1, h2 = 1e-5, 1e-4

        def moved(k, i, h):
            shifted = pts.copy()
            shifted[:, i] += h
            return net.evaluate(shifted)[:, k]

        for k, jet in enumerate(jet_at(net, pts, (0, 1, 2), laplacian)):
            for i in range(3):
                fd = (moved(k, i, h1) - moved(k, i, -h1)) / (2 * h1)
                np.testing.assert_allclose(jet.grads[i].value, fd, rtol=1e-5, atol=1e-7)
            fd = sum((moved(k, i, h2) - 2 * moved(k, i, 0.0) + moved(k, i, -h2)) / h2**2
                     for i in laplacian)
            np.testing.assert_allclose(jet.laplacian.value, fd, rtol=1e-3, atol=1e-6)

    @staticmethod
    def jet_loss(net, pts):
        tape = ad.Tape()
        leaves = [tape.batch(pts[:, i]) for i in range(3)]
        terms = tape.constant(0.0)
        for jet in net.jet(tape, leaves, (0, 1, 2), laplacian=(0, 1)):
            dr, dz, dt = jet.grads
            terms = terms + jet.value * dt + dr * dz + jet.laplacian * jet.laplacian
        return tape.mean(terms)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parameter_gradient_matches_directional_fd(self, seed):
        net = nets.build(6, 8, 3, 2, seed=seed, name="u")
        net.theta *= 3.0  # curved enough that every derivative row matters
        pts = safe_points(net, 16, seed=seed)
        loss = self.jet_loss(net, pts)
        grad = loss.tape.backward_values(loss, ["u"])["u"]
        direction = np.random.default_rng(seed).standard_normal(grad.size)
        direction /= np.linalg.norm(direction)
        theta0, h = net.theta.copy(), 1e-6
        values = []
        for sign in (1.0, -1.0):
            net.theta[:] = theta0 + sign * h * direction
            values.append(float(self.jet_loss(net, pts).value))
        net.theta[:] = theta0
        fd = (values[0] - values[1]) / (2 * h)
        assert abs(grad @ direction - fd) <= 1e-6 * max(abs(fd), 1e-12)

    def test_replay_after_in_place_change_equals_fresh_build(self):
        net = nets.build(12, 20, 3, 2, seed=3, name="u")
        pts = np.random.default_rng(4).uniform(-1, 1, size=(30, 3))
        loss = self.jet_loss(net, pts)
        net.theta += 1e-2 * np.random.default_rng(5).standard_normal(net.theta.size)
        loss.tape.replay()
        fresh = self.jet_loss(net, pts).tape
        assert len(loss.tape) == len(fresh)
        for got, want in zip(loss.tape._vals, fresh._vals):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("depth", [6, 12])
    def test_closed_form_factors_compose_with_the_network_jet(self, depth):
        # an output ansatz w(r) [(1 - zeta) f(t) + zeta U N_z], with
        # w = 1 - r^2 / R^2, zeta = z / L and f(t) = cos(omega t): input
        # jets, a network jet and a recorded factor U in one jet expression
        net = nets.build(depth, 20, 3, 2, seed=depth, name="u")
        pts = safe_points(net, 8, seed=6)
        radius, length, omega, scale = 1.3, 1.7, np.float64(2.0), 0.8

        def ansatz(p):
            r, z, t = p.T
            zeta = z * (1.0 / length)
            n_z = net.evaluate(p)[:, 0]
            return (1.0 - r * r * (1.0 / radius**2)) * (
                (1.0 - zeta) * np.cos(omega * t) + zeta * (scale * n_z))

        tape = ad.Tape()
        leaves = [tape.batch(pts[:, i]) for i in range(3)]
        n_z, _ = net.jet(tape, leaves, (0, 1, 2), laplacian=(0, 1))
        r, z, t = ad.input_jets(leaves, (0, 1, 2), laplacian=(0, 1))
        zeta = z * (1.0 / length)
        jet = (1.0 - r * r * (1.0 / radius**2)) * (
            (1.0 - zeta) * ad.cos(omega * t) + zeta * (tape.constant(scale) * n_z))
        assert jet.value.value.tobytes() == ansatz(pts).tobytes()

        h1, h2 = 1e-5, 1e-4

        def moved(i, h):
            shifted = pts.copy()
            shifted[:, i] += h
            return ansatz(shifted)

        for i in range(3):
            fd = (moved(i, h1) - moved(i, -h1)) / (2 * h1)
            np.testing.assert_allclose(jet.grads[i].value, fd, rtol=1e-5, atol=1e-7)
        fd = sum((moved(i, h2) - 2 * moved(i, 0.0) + moved(i, -h2)) / h2**2 for i in (0, 1))
        np.testing.assert_allclose(jet.laplacian.value, fd, rtol=1e-3, atol=1e-6)

    def test_laplacian_outside_the_directions_rejected(self):
        net = nets.build(3, 4, 3, 1, seed=0)
        with pytest.raises(ValueError, match="Laplacian"):
            jet_at(net, np.zeros((2, 3)), (0,), laplacian=(1,))


class TestFrozenRead:
    """A read of a network its record does not train is one layer run of
    every layer, which keeps no layer values. Its values, the parameter
    gradients through its recompute and its replays equal those of the
    per-layer read bit for bit."""

    # (directions, Laplacian directions)
    READS = {"laplacian": ((0, 1, 2), (0, 1)), "first": ((0, 2), ()), "value": ((), ())}

    @staticmethod
    def nets_of(depth):
        return (nets.build(depth, 20, 3, 2, seed=depth, name="u"),
                nets.build(depth, 8, 3, 1, seed=depth + 1, name="d"))

    @classmethod
    def loss(cls, u, d, pts, trained, read):
        """A mean over every part of u's jet at points shifted by d's
        output, so u's input adjoint reaches d."""
        directions, laplacian = cls.READS[read]
        tape = ad.Tape(trained=trained)
        r, z, t = (tape.batch(pts[:, i]) for i in range(3))
        eta = d.jet(tape, [r, z, t])[0].value
        terms = tape.constant(0.0)
        for jet in u.jet(tape, [r + eta * 0.1, z, t], directions, laplacian):
            terms = terms + jet.value * jet.value
            for g in jet.grads:
                terms = terms + jet.value * g
            if laplacian:
                terms = terms + jet.laplacian * jet.laplacian
        return tape.mean(terms)

    @staticmethod
    def assert_same(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @staticmethod
    def selects(tape):
        return [v for op, v in zip(tape._ops, tape._vals) if op == ad._SELECT]

    @pytest.mark.parametrize("read", list(READS))
    @pytest.mark.parametrize("depth", [6, 12])
    @pytest.mark.parametrize("trained", [(), ("d",)], ids=["none", "d"])
    def test_values_equal_per_layer_read(self, depth, read, trained):
        u, d = self.nets_of(depth)
        pts = np.random.default_rng(depth).uniform(-1.0, 1.0, size=(16, 3))
        frozen = self.loss(u, d, pts, trained, read)
        kept = self.loss(u, d, pts, None, read)
        runs = [len(args[2]) for op, args in zip(frozen.tape._ops, frozen.tape._args)
                if op == ad._LAYERS]
        assert sorted(runs) == [1] * (depth * len(trained)) + [depth] * (2 - len(trained))
        self.assert_same(self.selects(frozen.tape), self.selects(kept.tape))
        assert np.asarray(frozen.value).tobytes() == np.asarray(kept.value).tobytes()

    @pytest.mark.parametrize("read", list(READS))
    @pytest.mark.parametrize("depth", [6, 12])
    @pytest.mark.parametrize("trained", [(), ("d",)], ids=["none", "d"])
    def test_param_grads_equal_per_layer_read(self, depth, read, trained):
        u, d = self.nets_of(depth)
        pts = np.random.default_rng(depth).uniform(-1.0, 1.0, size=(16, 3))
        frozen = self.loss(u, d, pts, trained, read)
        kept = self.loss(u, d, pts, None, read)
        for groups in (["u"], ["d"], ["u", "d"]):
            got = frozen.tape.backward_values(frozen, groups)
            want = kept.tape.backward_values(kept, groups)
            for g in groups:
                assert np.any(want[g] != 0.0)
                assert got[g].tobytes() == want[g].tobytes(), g

    @pytest.mark.parametrize("read", list(READS))
    @pytest.mark.parametrize("depth", [6, 12])
    def test_replay_after_in_place_change_equals_fresh_build(self, depth, read):
        u, d = self.nets_of(depth)
        pts = np.random.default_rng(depth).uniform(-1.0, 1.0, size=(16, 3))
        loss = self.loss(u, d, pts, (), read)
        rng = np.random.default_rng(5)
        for net in (u, d):
            net.theta += 1e-2 * rng.standard_normal(net.theta.size)
            loss.tape.replay()
            self.assert_same(loss.tape._vals, self.loss(u, d, pts, (), read).tape._vals)
        self.assert_same(self.selects(loss.tape),
                         self.selects(self.loss(u, d, pts, None, read).tape))

    def test_record_keeps_no_layer_values(self):
        u, d = self.nets_of(12)
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(64, 3))
        frozen = self.loss(u, d, pts, (), "laplacian").tape
        kept = self.loss(u, d, pts, None, "laplacian").tape
        assert len(kept) - len(frozen) == 2 * 11  # 12 one-layer runs per read become one
        nbytes = [sum(np.asarray(v).nbytes for v in tape._vals) for tape in (frozen, kept)]
        assert nbytes[0] < nbytes[1] / 5

    def test_whole_read_refused_as_operand(self):
        u, _ = self.nets_of(6)
        tape = ad.Tape(trained=())
        u.jet(tape, [tape.batch([0.1])] * 3)
        (read,) = [i for i, op in enumerate(tape._ops) if op == ad._LAYERS]
        with pytest.raises(ad.RecordError):
            ad.DiffScalar(tape, read) * 2.0
        with pytest.raises(ad.RecordError, match="takes a row made by stack"):
            tape.layers(ad.DiffScalar(tape, read), "u", u._layers[-1:], (0,))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        u = nets.build(6, 8, 3, 2, seed=1, name="u")
        p = nets.build(6, 4, 3, 1, seed=2, name="p")
        path = tmp_path / "ckpt.npz"
        extras = {"adam_m_u": np.random.default_rng(0).normal(size=len(u.theta))}
        nets.save_networks(path, {"u": u, "p": p}, extras)
        loaded, got_extras = nets.load_networks(path)
        assert np.array_equal(loaded["u"].theta, u.theta)
        assert np.array_equal(loaded["p"].theta, p.theta)
        assert loaded["u"].widths == u.widths
        assert np.array_equal(got_extras["adam_m_u"], extras["adam_m_u"])

    def test_loaded_network_evaluates_identically(self, tmp_path):
        net = nets.build(5, 6, 3, 1, seed=9, name="d")
        path = tmp_path / "one.npz"
        nets.save_networks(path, {"d": net})
        loaded, _ = nets.load_networks(path)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(10, 3))
        assert np.array_equal(loaded["d"].evaluate(pts), net.evaluate(pts))

    def test_header_naming_the_activations_loads(self, tmp_path):
        # Older headers also name the activations as "alternating", the only
        # ones a network has; any other name is rejected (tests/test_cli.py).
        net = nets.build(5, 6, 3, 1, seed=9, name="d")
        header = {"d": {"depth": 5, "widths": net.widths, "schedule": "alternating"}}
        path = tmp_path / "older.npz"
        np.savez(path, theta_d=net.theta,
                 header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8))
        loaded, _ = nets.load_networks(path)
        assert loaded["d"].activations == net.activations
        assert np.array_equal(loaded["d"].theta, net.theta)

    def test_unreadable_checkpoint_leaves_no_file_open(self, tmp_path):
        net = nets.build(5, 6, 3, 1, seed=9, name="d")
        path = tmp_path / "whole.npz"
        nets.save_networks(path, {"d": net})
        whole = path.read_bytes()
        truncated = tmp_path / "truncated.npz"
        truncated.write_bytes(whole[:len(whole) // 2])
        # a leaked handle warns when the traceback holding it is freed
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(zipfile.BadZipFile):
                nets.load_networks(truncated)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
