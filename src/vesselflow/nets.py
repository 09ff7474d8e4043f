"""Fully connected field networks with alternating activations.

A network of depth L is a chain of L affine maps. Hidden maps are
activated, sigmoid first and then relu and sigmoid in turn; the final
affine map has no activation so outputs can take any scale. Hidden
widths are uniform. Parameters live in one flat float64 vector, laid out
layer by layer as row-major weights followed by the bias, which is also
the ordering used by parameter gradients and checkpoints.
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad

# Rows a plain read, and each record of `analysis.speed_field`, takes
# through all layers at once: half a default-grid slice. Callers read it
# at call time. A block's layer array is 320 KiB at width 20, and a width-20
# product stays under the 2,500 points below which OpenBLAS 0.3.31, on an
# AVX-512 CPU, runs its single-threaded small-matrix kernel, so there the
# bits do not follow the BLAS thread count.
READ_BLOCK = 2048


class FieldNetwork:
    """One coordinate network (velocity, pressure or displacement role).

    widths holds in_dim, the uniform hidden widths, and out_dim, so its
    length is depth + 1.
    """

    def __init__(self, name: str, depth: int, widths, theta: np.ndarray):
        self.name = name
        self.depth = depth
        self.widths = list(widths)
        if len(self.widths) != depth + 1:
            raise ValueError(f"{name}: depth {depth} needs {depth + 1} widths, "
                             f"got {len(self.widths)}")
        self.theta = theta
        # as the record names them: odd hidden layers sigmoid, even ones
        # relu, and None for the output layer
        self.activations = ["sigmoid" if layer % 2 else "relu" for layer in range(1, depth)] + [None]
        # each layer as the record reads it: (weight offset, (rows, cols),
        # bias offset, activation)
        self._layers = []
        off = 0
        for layer in range(depth):
            fan_in, fan_out = self.widths[layer], self.widths[layer + 1]
            self._layers.append((off, (fan_out, fan_in), off + fan_in * fan_out,
                                 self.activations[layer]))
            off += fan_in * fan_out + fan_out
        self._size = off
        if len(theta) != self._size:
            raise ValueError(f"parameter vector has {len(theta)} entries, need {self._size}")

    def weight(self, layer: int) -> np.ndarray:
        """Row-major weight view of affine layer `layer` (0-based)."""
        return ad.layer_params(self.theta, self._layers[layer])[0]

    def bias(self, layer: int) -> np.ndarray:
        return ad.layer_params(self.theta, self._layers[layer])[1]

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    @property
    def out_dim(self) -> int:
        return self.widths[-1]

    def jet(self, tape: ad.Tape, inputs, directions=(), laplacian=()) -> list[ad.Jet]:
        """Record the network at `inputs` (DiffScalar, length in_dim) with
        its input derivatives, one ``ad.Jet`` per output: first derivatives
        along each input index in `directions`, and the sum of the pure
        second derivatives along the indices in `laplacian`, a subset of
        `directions` (0.0 when empty). The record holds a stack of the
        inputs, the network read (``ad.Tape.layers``) and one select per
        row of each output, whatever the width. On a batch of at most
        `READ_BLOCK` points the values equal ``evaluate``'s bit for bit."""
        if len(inputs) != self.in_dim:
            raise ValueError(f"{self.name}: expected {self.in_dim} inputs, got {len(inputs)}")
        directions = tuple(directions)
        lap = ad.laplacian_positions(directions, laplacian)
        tape.register_params(self.name, self.theta)
        x = tape.layers(tape.stack(inputs), self.name, self._layers, directions, lap)
        rows = len(directions)
        return [ad.Jet(tape.select(x, k, 0),
                       (tape.select(x, k, 1 + j) for j in range(rows)),
                       tape.select(x, k, 1 + rows) if lap else 0.0, lap)
                for k in range(self.out_dim)]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Plain numpy forward over rows of `points`, shape (n, in_dim) -> (n, out_dim).

        The rows go through all layers in blocks of at most `READ_BLOCK`,
        so the layer arrays and the width of each product do not grow with
        n. Each block is the record's own walk of its layers
        (``ad.run_layers``) on a jet without directions, the contiguous
        (1, width, rows) row a layer run maps; `points` is left unchanged
        and the result is a transposed view. So each block is bitwise equal
        to the values `jet` records from a batch of that block's rows."""
        points = np.asarray(points, dtype=np.float64)
        out = np.empty((self.out_dim, len(points)))
        for lo in range(0, len(points), READ_BLOCK):
            x = np.ascontiguousarray(points[lo:lo + READ_BLOCK].T)[None]
            out[:, lo:lo + READ_BLOCK] = ad.run_layers(self.theta, self._layers, x, ())[0]
        return out.T

    def relu_margin(self, point) -> float:
        """Smallest |pre-activation| seen by any relu unit at `point`.

        Useful for keeping finite-difference probes away from kinks. Each
        layer is ``evaluate``'s at one point, activated after the margin
        is read, so it walks the layers itself: ``ad.run_layers`` keeps no
        pre-activation."""
        x = np.asarray(point, dtype=np.float64).reshape(1, -1, 1)
        margin = np.inf
        for layer in self._layers:
            x = ad.layer_jet(x, *ad.layer_params(self.theta, layer), None, ())
            if layer[3] == "relu":
                margin = min(margin, float(np.min(np.abs(x))))
            ad.activate_in_place(layer[3], x)
        return margin


def layer_widths(depth: int, hidden_width: int, in_dim: int, out_dim: int) -> list[int]:
    """Widths of a network built by ``build``: in_dim, depth - 1 hidden
    layers of hidden_width, out_dim."""
    return [in_dim] + [hidden_width] * (depth - 1) + [out_dim]


def build(depth: int, hidden_width: int, in_dim: int, out_dim: int, seed: int,
          name: str = "net") -> FieldNetwork:
    """Scaled-uniform initialized network; biases start at zero. Each
    layer's weights are drawn in row-major order from one `seed` stream,
    layer by layer."""
    if depth < 2:
        raise ValueError("depth must be at least 2 affine layers")
    widths = layer_widths(depth, hidden_width, in_dim, out_dim)
    net = FieldNetwork(name, depth, widths, np.zeros(param_count(widths)))
    rng = np.random.default_rng(seed)
    for layer in range(depth):
        w = net.weight(layer)
        bound = np.sqrt(6.0 / sum(w.shape))
        w[:] = rng.uniform(-bound, bound, size=w.shape)
    return net


def zero_init_output(net: FieldNetwork) -> None:
    """Zero the final affine map so the network output is identically zero."""
    net.weight(net.depth - 1)[:] = 0.0
    net.bias(net.depth - 1)[:] = 0.0


def param_count(widths) -> int:
    """Weights and biases of a network with these layer widths."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(widths, widths[1:]))


def split_param_count(depth: int, total_width: int) -> int:
    """Combined size of the velocity/pressure pair at a given total width.

    The velocity network takes two thirds of the width and two outputs,
    the pressure network the remaining third and one output; both read
    (r, z, t)."""
    wu, wp = 2 * total_width // 3, total_width // 3
    return (param_count(layer_widths(depth, wu, 3, 2))
            + param_count(layer_widths(depth, wp, 3, 1)))


def single_param_count(depth: int, width: int) -> int:
    """Size of the single network emitting (u_z, u_r, P) from (r, z, t)."""
    return param_count(layer_widths(depth, width, 3, 3))


# ----------------------------------------------------------------------
# checkpointing

def save_networks(path, networks: dict[str, FieldNetwork], extras: dict | None = None) -> None:
    """Write networks (plus optional float64 arrays) to one npz archive.

    The header holds the depth and widths of each network; parameter
    vectors round-trip bit-exactly."""
    meta = {name: {"depth": n.depth, "widths": n.widths} for name, n in networks.items()}
    payload = {f"theta_{name}": n.theta for name, n in networks.items()}
    if extras:
        for key, arr in extras.items():
            payload[f"extra_{key}"] = np.asarray(arr)
    payload["header"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **payload)


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def load_networks(path) -> tuple[dict[str, FieldNetwork], dict[str, np.ndarray]]:
    """Networks and extras written by ``save_networks``; a ValueError when
    the header is not an object mapping each name to a positive integer
    depth and a list of positive integer widths, or when a parameter
    vector is not 1-d float64 or holds a value that is not finite."""
    # np.load leaves a file it opened itself open when the archive cannot
    # be read, so the file is opened, and closed, here.
    with open(path, "rb") as fh, np.load(fh) as data:
        meta = json.loads(bytes(data["header"]).decode())
        if not isinstance(meta, dict):
            raise ValueError("header is not a JSON object")
        nets = {}
        extras = {}
        for name, info in meta.items():
            if not (isinstance(info, dict) and _positive_int(info.get("depth"))
                    and isinstance(info.get("widths"), list)
                    and all(map(_positive_int, info["widths"]))):
                raise ValueError(f"{name}: header needs a positive integer depth "
                                 "and a list of positive integer widths")
            # older headers name the activations, which were always these
            if info.get("schedule", "alternating") != "alternating":
                raise ValueError(f"{name}: unknown activation schedule {info['schedule']!r}")
            theta = data[f"theta_{name}"]
            if theta.dtype != np.float64 or theta.ndim != 1:
                raise ValueError(f"{name}: parameter vector is {theta.ndim}-d {theta.dtype}, "
                                 "not 1-d float64")
            bad = np.flatnonzero(~np.isfinite(theta))
            if bad.size:
                raise ValueError(f"{name}: parameter {bad[0]} is {theta[bad[0]]}, not finite")
            nets[name] = FieldNetwork(name, info["depth"], info["widths"], theta.copy())
        for key in data.files:
            if key.startswith("extra_"):
                extras[key[len("extra_"):]] = data[key].copy()
    return nets, extras
