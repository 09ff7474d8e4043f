"""Recorded autodiff with nested derivatives, one node per run of network layers.

A Tape is an append-only record of operations. DiffScalar handles wrap
record entries; Python arithmetic on them appends nodes eagerly. Each kind
of derivative is taken one way. Input derivatives are jets (``Jet``): a
value, its first derivatives G_j along the requested input directions and
the sum L of its pure second derivatives along a set D of them (the r-z
Laplacian, or d2/dt2). Layer runs carry a network's jet; jet
arithmetic (G' = f' G, L' = f' L + f'' * sum over j in D of G_j^2, and
their product forms) carries it through everything else, closed-form
fields (``closed_form``) included, as ordinary nodes. So a derivative is
itself recorded and differentiable. Parameter gradients come from one
backward pass that produces plain numbers (``Tape.backward_values``).

Each pointwise op (arithmetic, ``detach``, ``step`` and the elementary
functions) is one row of a table keyed by opcode: its value of plain
operands, which recording, replay and a plain-number call all compute,
and for each operand its adjoint, which is all the backward pass knows of
it; an op with no adjoint passes no derivative. The row of an elementary
function f also holds its slope f' and curvature f'', each written once,
the curvature given the slope: a jet applies both, the backward pass
multiplies the output adjoint by the slope, and a layer reads its
activation's.

Every batched input is a lockstep batch: a 1-d array holding one
independent value per collocation point, evaluated together; a single
point is a batch of one. Constants, means and derivatives that are equal
at every point are float64 scalars, which broadcast against batches as in
numpy. Every operation on pointwise values is elementwise and
``Tape.mean`` collapses a batch to a scalar. The record holds network
layers, not neurons: a stack joins k pointwise nodes, at least one of
them a batch, into a row of k (shape (k, n): unit-major, the point axis
last and contiguous), a layer run maps a row or the previous run's jet
through consecutive layers and holds its last jet alone, and a select node
reads one entry of one row of a jet back out, a contiguous batch. A part
node (``Tape.part``) reads points lo:hi of a batch, a view of it; a
scalar is its own part. So a record reads each network once per jet
shape: the point sets that need the same derivatives of a network share
one read over their union, and each set takes its part.

A network read is one call, ``Tape.layers``, on a row: it seeds the jet
and records a chain of runs, whose length the record chooses. A record
keeps layer values only for the networks its owner trains
(``Tape(trained=...)``; by default every one): a read of one of those is
one run per layer, so the backward pass finds each layer's input jet
stored; a read of any other network is one run of all its layers, which
runs them transiently when it is built or replayed. A backward pass that
reaches a run (through its operand, or for the gradient of its network)
recomputes the input jets of its layers from its operand and goes back
through them, so values and gradients are the same bits whatever the
run lengths. The flow record trains u and p while the wall fixes d, and
the wall record trains d against a fluid load it holds constant, so
neither ever recomputes a whole read in training; it keeps those as
nodes, not constants, so that a replay after a change of the untrained
network, and a gradient for it, stay exact.

A jet is one node whose value has shape (m, k, n): the row of values,
then one row of first derivatives G_j per requested direction, then, when
one is requested, the row of Laplacians L; a jet without directions is
the row of values alone (m = 1). The seed starts it at the network
inputs: unit directions and L = 0. Each layer of a run reads W and b by
offset from a registered parameter vector and maps the jet through
a = W x + b and y = act(a), with `act` a sigmoid, a relu or nothing:

    G'_j = s1 * (W G_j)
    L'   = s2 * sum over j in D of (W G_j)^2 + s1 * (W L)

where s1 and s2 are the activation's slope and curvature at a, from its
row of the op table, read from y: s(1 - s) and s(1 - s)(1 - 2s) for
sigmoid, the step of y and 0 for relu, 1 and 0 for none, and D is the
Laplacian's direction set. The pre-activation a is never stored: no
derivative rule reads it. This arithmetic and its adjoint are written
once, on arrays (``layer_jet``, ``_layer_adjoint``), and one function
walks a jet through consecutive layers (``run_layers``). On a jet with
derivative rows, a sigmoid layer, forward and adjoint, computes s1 once
and s2 from it as s1 (1 - 2s), sums the Laplacian's squares into one
row, and writes every further intermediate into a row it owns rather
than a new array per operation. Each element goes through the same
floating-point operations in the same order as in the reference
arithmetic that ``tests/test_autodiff.py`` keeps, so no bit moves. A
relu layer multiplies by its step as a float64 mask: numpy multiplies
by a bool array through a slower, buffered cast. Every product runs
along the point axis: the value row is W x, a product of its own over
the n columns so that its bits do not depend on the directions; the
derivative rows are one batched W G; the input adjoint is one batched
W^T times the output adjoint; the weight gradient is one batched product
of the adjoint with each input row's transpose, summed over the rows.
``nets.FieldNetwork.evaluate`` runs ``run_layers`` itself on a jet
without directions, so it equals a recorded forward bit for bit. The
arrays ``layer_jet`` allocates start on a 64-byte boundary, so how fast a
layer runs does not follow where malloc happened to place them.
``activate_in_place`` is the one activation arithmetic of layer runs and
``sigmoid``/``relu``: a layer activates its freshly computed product in
place, while ``activate`` works on a copy and leaves its input as it is.
Its sigmoid is a negation, then the tail 1 / (1 + exp(.)), and a sigmoid
layer with a bias enters the tail directly: it folds the negation into
the bias and computes -b - W x in the pass that would add b. The bits
are the same: negation is exact and round-to-nearest is symmetric, so
-b - W x rounds to exactly -(W x + b), and where W x + b is an exact
zero both forms give exp(+-0) = 1.

As it records a node, the record notes the parameter groups the node's
value reads: a layer run adds its own group to its operand's, and every
other node takes the union of its operands'. A replay and the backward
pass both follow this one mask; neither walks the record to find it.

The backward pass gives an adjoint only to the nodes whose value reads a
group it differentiates. A ``detach`` or ``step`` may take one, but its
row of the op table has no adjoint, so it passes nothing back. Every
adjoint takes the shape of its node's value: summed over a batch axis
the node lacks, repeated over one it has. It drops a contribution that
is a scalar exact zero, such as the adjoint of a term whose weight is 0:
that adds ±0 to every gradient entry it reaches, which leaves the entry
as it is, so a node that receives no other contribution is never
visited. At a pointwise op it computes each operand's adjoint from the
stored operands and output. At each layer of a run it recomputes the
products W G_j and W L from the layer's input jet, so they are never
stored, uses the third derivative s(1 - s)(1 - 6s + 6s^2) of a sigmoid,
and adds the weight gradient of every row of the jet in one batched
product summed over the rows. It scales the adjoint of a run in place,
so a run is read only by a select, whose adjoints all add into one zero
adjoint of the run's shape, and by the next run, which builds a fresh
one; the record refuses any other operation on one. A part adds its
adjoint into the points lo:hi of a zero batch.

A record's inputs are fixed once recorded: batches, constants and
weights of the loss alike. What a replay follows is the parameter
vectors: it re-evaluates, in record order, only the nodes whose value
reads (through any operand, ``detach`` and ``step`` included) a
parameter vector whose bits differ from its state at the last replay.
Those nodes go through the same floating-point operations in the same
order as when they were recorded, and every other stored value is
already what they would give, so a replay is bit-identical to
recomputing the whole record. A different input is a different record.
A layer run writes its last jet over the array it holds (the inner jets
of a run of several layers stay transient), so a replay does not hold a
run's old and new jet at once. A select's value is a view of its run, so
a value kept across a replay changes with it. A node is appended with its
value: an op that raises while it is recorded appends nothing, so no
later replay evaluates it.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
from typing import Callable, NamedTuple, Sequence

import numpy as np

# Node opcodes. CONST values, the record's inputs, are frozen. The
# weights of a LAYERS node are read from a named parameter vector on each
# replay; they are the only parameters a record reads.
_CONST = 1
_ADD = 2
_SUB = 3
_MUL = 4
_DIV = 5
_NEG = 6
_EXP = 7
_SQRT = 8
_RELU = 9
_STEP = 10
_SIN = 11
_COS = 12
_DETACH = 13
_SUM = 14  # sum over the batch axis divided by a count fixed at record time
_SIGMOID = 15
_STACK = 16
_SELECT = 17
_LAYERS = 18  # a run of network layers mapping a row or a run's jet to a jet
_PART = 19  # points lo:hi of a batch


class EvaluationError(RuntimeError):
    """A primitive hit an invalid input (division by zero, sqrt of a negative)."""


class RecordError(RuntimeError):
    """The record was used inconsistently (mixed tapes, bad batch shapes)."""


def _is_batch(v):
    return isinstance(v, np.ndarray)


def _operands(op: int, args: tuple) -> tuple:
    """Record indices a node `op` on `args` reads its value from (weights
    excluded)."""
    return args[:1] if op in (_SUM, _SELECT, _PART, _LAYERS) else args


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float64 vectors: -0.0 differs from 0.0 and
    a NaN equals itself."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def activate_in_place(act, z: np.ndarray) -> np.ndarray:
    """Activation `act` ("sigmoid", "relu" or None for none) of a float64
    array, written over it and returned: the one arithmetic of recorded
    activations and layer runs. For sigmoid it is 1 / (1 + exp(-z)), one
    operation at a time: negate, then ``_sigmoid_of_negated``."""
    if act == "sigmoid":
        _sigmoid_of_negated(np.negative(z, out=z))
    elif act == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _sigmoid_of_negated(z: np.ndarray) -> np.ndarray:
    """The sigmoid's tail, 1 / (1 + exp(z)), written over z = -a: the
    sigmoid of a once a caller has negated it."""
    with np.errstate(over="ignore"):
        np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def activate(act, z):
    """Activation `act` of a plain value, which is left unchanged: the
    arithmetic of ``activate_in_place`` on a float64 copy."""
    return activate_in_place(act, np.array(z, dtype=np.float64))[()]


def _step_value(v):
    """1.0 where v > 0, else 0.0 (NaN included)."""
    return np.greater(v, 0.0).astype(np.float64)


def _div_value(a, b):
    if np.any(b == 0.0):
        raise EvaluationError("(div): division by zero")
    return a / b


def _sqrt_value(v):
    if np.any(v < 0.0):
        raise EvaluationError("(sqrt): negative operand")
    return np.sqrt(v)


class _Pointwise(NamedTuple):
    """A pointwise op: its `value` of plain operands, and for each operand
    its adjoint from (output adjoint, operand values..., output value); an
    op without adjoints passes no derivative. An elementary function f
    also has its `slope` f'(x) from (x, f(x)) and its `curvature` f''(x)
    from (x, f(x), f'(x)), each zero when None: jets apply both
    (``Jet.apply``), and the backward pass multiplies the output adjoint by
    the slope."""
    value: Callable
    adjoints: tuple = ()
    slope: "Callable | None" = None
    curvature: "Callable | None" = None


def _function(value, slope=None, curvature=None) -> _Pointwise:
    """The row of an elementary function: its one adjoint is the output
    adjoint times its slope, and without a slope it has none."""
    adjoints = () if slope is None else (lambda g, x, y: g * slope(x, y),)
    return _Pointwise(value, adjoints, slope, curvature)


def _sigmoid_slope(x, y):
    """s(1 - s) at y = s. Its augmented assignments update the new array
    1 - y in place, and rebind a recorded or plain value, so this one
    formula serves records, layers and numbers alike."""
    s1 = 1.0 - y
    s1 *= y
    return s1


def _sigmoid_curvature(x, y, s1):
    """s(1 - s)(1 - 2s) at y = s from the slope s1, as (-2s + 1) s1: the
    bits of s1 (1 - 2s), in one new array."""
    s2 = y * -2.0
    s2 += 1.0
    s2 *= s1
    return s2


# Every pointwise op. A slope or curvature reads the module's elementary
# functions, so on a jet's parts it is recorded and on arrays it is plain.
# The step function is the recorded derivative of relu; its own derivative
# is zero everywhere (the kink at 0 is assigned derivative 0).
_POINTWISE = {
    _ADD: _Pointwise(operator.add, (lambda g, a, b, y: g, lambda g, a, b, y: g)),
    _SUB: _Pointwise(operator.sub, (lambda g, a, b, y: g, lambda g, a, b, y: -g)),
    _MUL: _Pointwise(operator.mul, (lambda g, a, b, y: g * b, lambda g, a, b, y: g * a)),
    _DIV: _Pointwise(_div_value, (lambda g, a, b, y: g / b, lambda g, a, b, y: -g * y / b)),
    _NEG: _Pointwise(operator.neg, (lambda g, x, y: -g,)),
    _DETACH: _function(lambda v: v),
    _STEP: _function(_step_value),
    _EXP: _function(np.exp, lambda x, y: y, lambda x, y, s1: y),
    _SQRT: _function(_sqrt_value, lambda x, y: 0.5 / y, lambda x, y, s1: -0.25 / (x * y)),
    _RELU: _function(functools.partial(activate, "relu"), lambda x, y: step(y)),
    _SIN: _function(np.sin, lambda x, y: cos(x), lambda x, y, s1: -y),
    _COS: _function(np.cos, lambda x, y: -sin(x), lambda x, y, s1: -y),
    _SIGMOID: _function(functools.partial(activate, "sigmoid"), _sigmoid_slope,
                        _sigmoid_curvature),
}
# a layer's activation and its op, whose slope and curvature the layer reads
_ACTIVATIONS = {"sigmoid": _SIGMOID, "relu": _RELU, None: None}


# The layer arithmetic of the record, on arrays: a layer run evaluates
# its layers with these (``run_layers``) and goes back through them with
# their adjoints, and nets.FieldNetwork.evaluate runs run_layers on a jet
# without directions.

def _seed_jet(row, directions, laplacian: bool) -> np.ndarray:
    """A (k, n) row as a jet: unit first derivatives along the entry
    indices in `directions` and, with `laplacian`, a zero Laplacian row."""
    jet = np.zeros((1 + len(directions) + laplacian,) + row.shape)
    jet[0] = row
    for j, k in enumerate(directions):
        jet[1 + j, k] = 1.0
    return jet


def layer_params(theta: np.ndarray, layer: tuple) -> tuple:
    """W and b (None without a bias) of a layer entry (offset, (rows, cols),
    bias, act) of the flat parameter vector `theta`, as views."""
    offset, (rows, cols), bias, _ = layer
    w = theta[offset:offset + rows * cols].reshape(rows, cols)
    return w, None if bias is None else theta[bias:bias + rows]


def _aligned_empty(shape) -> np.ndarray:
    """An uninitialised float64 array of `shape` whose data starts on a
    64-byte boundary. malloc aligns to 16 bytes only, and on an AVX-512
    Xeon the product and activation of a width-20 layer ran 14-16% slower
    on arrays that started off a 64-byte line, with the same bits. The
    buffer's address is read through ``ctypes.addressof``: asking
    ``ndarray.ctypes`` for it took several times as long as the
    allocation itself."""
    size = math.prod(shape)
    buf = np.empty(size + 7)
    start = -ctypes.addressof(ctypes.c_char.from_buffer(buf)) % 64 // 8
    return buf[start:start + size].reshape(shape)


def layer_jet(jet, w, b, act, laplacian, out=None) -> np.ndarray:
    """`jet` mapped through the layer act(W x + b) (no bias when b is
    None), as the module docstring writes it; `laplacian` holds the
    positions of the directions the Laplacian sums. The value row has a
    product of its own, so its bits do not depend on the directions. A
    sigmoid layer with a bias folds the sigmoid's negation into the bias:
    -b - W x is -(W x + b) in one pass, bit for bit, and goes on through
    ``_sigmoid_of_negated``. Written into `out` when given, an array of
    the result's shape that shares no memory with `jet`, else into a new
    array."""
    if out is None:
        out = _aligned_empty((len(jet), w.shape[0], jet.shape[2]))
    y = out[0]
    np.matmul(w, jet[0], out=y)
    if act == "sigmoid" and b is not None:
        _sigmoid_of_negated(np.subtract(-b[:, None], y, out=y))
    else:
        if b is not None:
            y += b[:, None]
        activate_in_place(act, y)
    if len(out) == 1:
        return out
    derivs = out[1:]
    np.matmul(w, jet[1:], out=derivs)
    if act is None:
        return out
    rule = _POINTWISE[_ACTIVATIONS[act]]
    s1 = rule.slope(None, y)
    squares = None
    if rule.curvature is not None and laplacian:  # read the products before they are scaled
        squares = _squares(derivs, laplacian)
        squares *= rule.curvature(None, y, s1)
    derivs *= s1
    if squares is not None:
        derivs[-1] += squares
    return out


def run_layers(theta: np.ndarray, layers: Sequence[tuple], jet: np.ndarray, laplacian,
               out=None) -> np.ndarray:
    """`jet` mapped through consecutive `layers` of the parameter vector
    `theta` by ``layer_jet``: the one walk of a run's value, of the input
    jets the backward pass recomputes and of a plain network read. Each
    inner jet is dropped for the next; the last is written into `out` when
    given, else into a new array."""
    for layer in layers[:-1]:
        jet = layer_jet(jet, *layer_params(theta, layer), layer[3], laplacian)
    last = layers[-1]
    return layer_jet(jet, *layer_params(theta, last), last[3], laplacian, out)


def _squares(derivs, laplacian) -> np.ndarray:
    """Sum over the positions j in `laplacian` of derivs[j]^2, in order, in
    one new row."""
    first, *rest = laplacian
    squares = np.multiply(derivs[first], derivs[first])
    if rest:
        row = np.empty_like(squares)
        for j in rest:
            squares += np.multiply(derivs[j], derivs[j], out=row)
    return squares


def _layer_adjoint(adjoint, y, jet, w, act, laplacian) -> np.ndarray:
    """Adjoint of the products W x + b, W G_j and W L of a layer with
    input `jet` and value row `y`, stacked as its jet is, written over
    `adjoint`, the adjoint of its output jet."""
    if act is None:
        return adjoint
    s1 = _POINTWISE[_ACTIVATIONS[act]].slope(None, y)
    # the step's own derivative is zero, and a value alone has no
    # derivative rows for the slope's derivative to reach
    if act == "relu" or len(adjoint) == 1:
        adjoint *= s1
        return adjoint
    # s1 and s2 depend on the pre-activation too: ds1/da = s2 = s1 (1 - 2s)
    # and ds2/da = s1 (1 - 6 s1). `inner` is the adjoint they pass to
    # the pre-activation, divided by s1. Each factor is built in place in
    # a row of its own, in the form of the table's sigmoid curvature.
    derivs = w @ jet[1:]
    inner = np.einsum("j...,j...->...", adjoint[1:], derivs)
    curve = y * -2.0  # 1 - 2s
    curve += 1.0
    inner *= curve
    if laplacian:
        squares = _squares(derivs, laplacian)
        squares *= adjoint[-1]
        row = s1 * -6.0  # 1 - 6 s1, then scratch
        row += 1.0
        row *= squares
        inner += row
        twice = curve  # 2 s2 times the Laplacian row's adjoint
        twice *= s1
        twice *= 2.0
        twice *= adjoint[-1]
    adjoint *= s1
    if laplacian:
        for j in laplacian:
            adjoint[1 + j] += np.multiply(twice, derivs[j], out=row)
    inner *= s1
    adjoint[0] += inner
    return adjoint


class DiffScalar:
    """Handle to one entry of a Tape: a lockstep batch, a row, a jet or a
    scalar equal at every point. Behaves like a real number; an operator
    with a ``Jet`` operand is left to the jet, so a reflected operator
    meets only a number."""

    __slots__ = ("tape", "index")
    # numpy scalars and arrays defer to these operators, so an array
    # operand is refused (``Tape.constant``) rather than mapped entrywise
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", index: int):
        self.tape = tape
        self.index = index

    @property
    def value(self):
        return self.tape._vals[self.index]

    def __repr__(self):
        return f"DiffScalar({self.value!r} @ node {self.index})"

    def _binary(self, op: int, other):
        if isinstance(other, Jet):
            return NotImplemented
        if not isinstance(other, DiffScalar):
            other = self.tape.constant(other)
        elif other.tape is not self.tape:
            raise RecordError("operands belong to different tapes")
        return self.tape._binary(op, self, other)

    def __add__(self, other):
        return self._binary(_ADD, other)

    def __radd__(self, other):
        return self.tape.constant(other)._binary(_ADD, self)

    def __sub__(self, other):
        return self._binary(_SUB, other)

    def __rsub__(self, other):
        return self.tape.constant(other)._binary(_SUB, self)

    def __mul__(self, other):
        return self._binary(_MUL, other)

    def __rmul__(self, other):
        return self.tape.constant(other)._binary(_MUL, self)

    def __truediv__(self, other):
        return self._binary(_DIV, other)

    def __rtruediv__(self, other):
        return self.tape.constant(other)._binary(_DIV, self)

    def __neg__(self):
        return self.tape._unary(_NEG, self)


# Jet parts are DiffScalars or plain numbers. An exact-zero part is the
# float 0.0 and records nothing: these skip the arithmetic it makes trivial.

def _zero(x) -> bool:
    return isinstance(x, (int, float)) and x == 0.0


def _plus(a, b):
    return b if _zero(a) else a if _zero(b) else a + b


def _minus(a, b):
    return a if _zero(b) else -b if _zero(a) else a - b


def _times(a, b):
    return 0.0 if _zero(a) or _zero(b) else a * b


class Jet:
    """A field at a batch with its input derivatives: its `value`, its first
    derivatives `grads` along the requested input directions, and
    `laplacian`, the sum of its pure second derivatives along the
    directions at positions `sums` among them (0.0 when `sums` is empty).
    Each part is a DiffScalar or a plain number. Arithmetic and the
    elementary functions of this module apply the sum, product, quotient
    and chain rules; an operand that is not a jet is a constant."""

    __slots__ = ("value", "grads", "laplacian", "sums")
    __array_ufunc__ = None  # numpy scalars and arrays defer to the jet's operators

    def __init__(self, value, grads, laplacian, sums):
        self.value = value
        self.grads = tuple(grads)
        self.laplacian = laplacian
        self.sums = tuple(sums)

    def lift(self, other) -> "Jet":
        """`other` as a jet over this jet's directions: a jet over the same
        ones as it is, anything else as a constant."""
        if not isinstance(other, Jet):
            return Jet(other, (0.0,) * len(self.grads), 0.0, self.sums)
        if (len(other.grads), other.sums) != (len(self.grads), self.sums):
            raise RecordError("jets over different directions combined")
        return other

    def _dot(self, g, h):
        """Sum of g_j h_j over the Laplacian's directions j."""
        return functools.reduce(_plus, (_times(g[j], h[j]) for j in self.sums), 0.0)

    def __add__(self, other):
        b = self.lift(other)
        return Jet(self.value + b.value, map(_plus, self.grads, b.grads),
                   _plus(self.laplacian, b.laplacian), self.sums)

    def __sub__(self, other):
        b = self.lift(other)
        return Jet(self.value - b.value, map(_minus, self.grads, b.grads),
                   _minus(self.laplacian, b.laplacian), self.sums)

    def __mul__(self, other):
        b = self.lift(other)
        grads = [_plus(_times(g, b.value), _times(self.value, h))
                 for g, h in zip(self.grads, b.grads)]
        lap = _plus(_plus(_times(self.laplacian, b.value), _times(self.value, b.laplacian)),
                    _times(2.0, self._dot(self.grads, b.grads)))
        return Jet(self.value * b.value, grads, lap, self.sums)

    def __truediv__(self, other):
        # from self = q b: G_q = (G - q G_b) / b and L_q = (L - q L_b - 2 G_q . G_b) / b
        b = self.lift(other)
        q = self.value / b.value
        grads = [_minus(g, _times(q, h)) for g, h in zip(self.grads, b.grads)]
        grads = [0.0 if _zero(g) else g / b.value for g in grads]
        lap = _minus(_minus(self.laplacian, _times(q, b.laplacian)),
                     _times(2.0, self._dot(grads, b.grads)))
        return Jet(q, grads, 0.0 if _zero(lap) else lap / b.value, self.sums)

    __radd__ = __add__  # addition and multiplication are exactly commutative
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self.lift(other) - self

    def __rtruediv__(self, other):
        return self.lift(other) / self

    def __neg__(self):
        return Jet(-self.value, (_minus(0.0, g) for g in self.grads),
                   _minus(0.0, self.laplacian), self.sums)

    def apply(self, value, slope=None, curvature=None) -> "Jet":
        """f(x) at this jet's value x, given `value` = f(x), slope(x, value)
        = f'(x) and curvature(x, value, f'(x)) = f''(x), each zero when
        None."""
        if slope is None or all(_zero(g) for g in (*self.grads, self.laplacian)):
            return self.lift(value)
        s1 = slope(self.value, value)
        lap = _times(s1, self.laplacian)
        squares = self._dot(self.grads, self.grads)
        if curvature is not None and not _zero(squares):
            lap = _plus(lap, _times(curvature(self.value, value, s1), squares))
        return Jet(value, (_times(s1, g) for g in self.grads), lap, self.sums)


def laplacian_positions(directions: Sequence[int], laplacian: Sequence[int]) -> tuple:
    """Positions among `directions` of the input indices in `laplacian`;
    a ValueError when one is not among them."""
    directions, laplacian = tuple(directions), tuple(laplacian)
    if not set(laplacian) <= set(directions):
        raise ValueError(f"Laplacian directions {laplacian} are not among {directions}")
    return tuple(directions.index(k) for k in laplacian)


def input_jets(inputs, directions: Sequence[int], laplacian: Sequence[int] = ()) -> list[Jet]:
    """Jets of independent inputs: unit first derivatives along the input
    indices in `directions`, and a zero Laplacian along those in `laplacian`."""
    directions = tuple(directions)
    sums = laplacian_positions(directions, laplacian)
    return [Jet(x, (1.0 if k == i else 0.0 for k in directions), 0.0, sums)
            for i, x in enumerate(inputs)]


class Tape:
    """Append-only computation record over batched, layer and scalar values.

    `trained` names the parameter groups the record's owner trains (None:
    every group). A network read (``layers``) of any other group is
    recorded as one layer run of all its layers."""

    def __init__(self, trained: "Sequence[str] | None" = None):
        self._trained = None if trained is None else frozenset(trained)
        self._ops: list[int] = []
        self._args: list[tuple] = []
        self._vals: list = []
        # Each parameter group a layer run reads has a bit; for each node,
        # the bits of the groups its value reads.
        self._bits: dict[str, int] = {}
        self._reads: list[int] = []
        self._groups: dict[str, np.ndarray] = {}
        self._shared: dict[tuple, int] = {}  # key -> node, see _node
        # Replay bookkeeping: each group's bits at the last replay, and the
        # groups changed since then.
        self._snapshots: dict[str, np.ndarray] = {}
        self._changed: set = set()

    # ------------------------------------------------------------------
    # construction

    def __len__(self):
        return len(self._ops)

    def _push(self, op: int, args: tuple, value=None) -> DiffScalar:
        """Append a node with its value, noting the groups the value reads;
        a value of None is computed from the operands first, so an op that
        raises appends nothing."""
        i = len(self._ops)
        if value is None:
            value = self._eval(i, op, args)
        reads = self._bits.setdefault(args[1], 1 << len(self._bits)) if op == _LAYERS else 0
        for a in _operands(op, args):
            reads |= self._reads[a]
        self._ops.append(op)
        self._args.append(args)
        self._vals.append(value)
        self._reads.append(reads)
        return DiffScalar(self, i)

    def _mask(self, groups) -> int:
        """The bits of parameter groups `groups`; a group no layer run
        reads has none."""
        return functools.reduce(operator.or_, (self._bits.get(g, 0) for g in groups), 0)

    def _node(self, key: tuple, op: int, args: tuple, value=None) -> int:
        """Index of the node `key` names, recorded once as `op` on `args`
        and shared."""
        found = self._shared.get(key)
        if found is None:
            found = self._shared[key] = self._push(op, args, value).index
        return found

    def batch(self, values) -> DiffScalar:
        """New input holding a lockstep batch of independent reals, fixed
        for the life of the record; one point is a batch of one."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise RecordError("batches must be 1-d")
        return self._push(_CONST, (), arr.copy())

    def constant(self, value: float) -> DiffScalar:
        """Frozen real value; one node per value, shared by every request.
        Values are told apart by their bits, so 0.0 and -0.0 are two."""
        value = float(value)
        return DiffScalar(self, self._node((_CONST, value.hex()), _CONST, (), value))

    def register_params(self, name: str, values: np.ndarray) -> None:
        """Attach a named parameter vector. The array is kept by reference:
        in-place updates are picked up on the next replay. Registering it
        again after an in-place update marks it changed, so nodes recorded
        against either state are refreshed by the next replay."""
        if values.dtype != np.float64 or values.ndim != 1:
            raise RecordError("parameter vectors must be 1-d float64")
        existing = self._groups.get(name)
        if existing is None:
            self._groups[name] = values
            self._snapshots[name] = values.copy()
        elif existing is not values:
            raise RecordError(f"parameter group {name!r} already registered")
        elif not _same_bits(values, self._snapshots[name]):
            self._changed.add(name)

    # ------------------------------------------------------------------
    # primitive evaluation (shared by eager construction and replay)

    def _check_pair(self, a, b):
        va, vb = self._vals[a], self._vals[b]
        if _is_batch(va) and _is_batch(vb) and va.shape != vb.shape:
            raise RecordError("lockstep batches of different lengths combined")

    def _run_input(self, args: tuple) -> np.ndarray:
        """The input jet (m, k, n) of a layer run on `args`: its operand
        run's value, or its operand row seeded."""
        x, _, _, directions, laplacian = args
        jet = self._vals[x]
        return jet if self._ops[x] == _LAYERS else _seed_jet(jet, directions, bool(laplacian))

    def _eval(self, i: int, op: int, args: tuple, out=None):
        """The value of node i, `op` on `args`. A layer run writes its last
        jet over `out`, the array a replay passes, or into a new array."""
        vals = self._vals
        if op == _LAYERS:  # first: the most frequent node a replay evaluates
            _, group, layers, _, laplacian = args
            return run_layers(self._groups[group], layers, self._run_input(args), laplacian, out)
        rule = _POINTWISE.get(op)
        if rule is not None:
            try:
                return rule.value(*[vals[a] for a in args])
            except EvaluationError as err:
                raise EvaluationError(f"node {i} {err}") from None
        if op == _SUM:
            v, n = vals[args[0]], args[1]
            return float(np.sum(v, axis=0) / n) if _is_batch(v) else v / n
        if op == _STACK:
            return np.stack(np.broadcast_arrays(*[vals[a] for a in args]))
        if op == _SELECT:
            x, k, part = args
            return vals[x][part][k]
        if op == _PART:
            x, lo, hi = args
            return vals[x][lo:hi]
        raise RecordError(f"node {i}: op {op} cannot be re-evaluated")

    def _binary(self, op, a: DiffScalar, b: DiffScalar) -> DiffScalar:
        self._check_pair(a.index, b.index)
        self._not_layers(a, b)
        return self._push(op, (a.index, b.index))

    def _unary(self, op, a: DiffScalar) -> DiffScalar:
        self._not_layers(a)
        return self._push(op, (a.index,))

    def _not_layers(self, *xs: DiffScalar) -> None:
        """Refuse a layer run as an operand of anything but ``select`` and
        the next run. The backward pass scales a run's adjoint in place,
        which is safe because those two build a fresh one for it."""
        if any(self._is_run(x) for x in xs):
            raise RecordError("a network layer is read only through select "
                              "or the next layer")

    def _is_run(self, x: DiffScalar) -> bool:
        return self._ops[x.index] == _LAYERS

    # public primitives beyond operator syntax -------------------------

    def stack(self, xs: Sequence[DiffScalar]) -> DiffScalar:
        """Row of k pointwise nodes, at least one of them a batch: shape
        (k, n), each entry a contiguous batch, with a scalar entry repeated
        at every point. Stacking the same nodes again returns the same row."""
        self._not_layers(*xs)
        if not any(_is_batch(x.value) for x in xs):
            raise RecordError("a row needs a batch among its entries")
        args = tuple(x.index for x in xs)
        return DiffScalar(self, self._node((_STACK, args), _STACK, args))

    def select(self, x: DiffScalar, k: int, part: "int | None" = None) -> DiffScalar:
        """Entry `k` of row `part` of a layer run's jet, the one thing
        select reads."""
        if part is None or not self._is_run(x):
            raise RecordError("select reads a row of a layer run's jet by part")
        return self._push(_SELECT, (x.index, k, part))

    def part(self, x: DiffScalar, lo: int, hi: int) -> DiffScalar:
        """Points lo:hi of a batch, a view of it; a scalar, equal at every
        point, is its own part. A record that reads a network once over
        the union of several point sets hands each set its part."""
        self._not_layers(x)
        v = x.value
        if not _is_batch(v):
            return x
        if v.ndim != 1 or not 0 <= lo < hi <= len(v):
            raise RecordError(f"no part {lo}:{hi} of a batch of shape {v.shape}")
        return self._push(_PART, (x.index, lo, hi))

    def layers(self, row: DiffScalar, group: str, layers: Sequence[tuple],
               directions: Sequence[int] = (),
               laplacian: "tuple[int, ...]" = ()) -> DiffScalar:
        """A network read: consecutive layers mapping a row node (``stack``)
        to the jet of the last layer. Each layer is ``act(W x + b)`` given
        as (offset, (rows, cols), bias, act): W is the row-major block of
        parameter group `group` at `offset`, b the `rows` entries at `bias`
        (no bias when None), and `act` is "sigmoid", "relu" or None.

        The row is seeded as a jet with a unit first derivative along each
        entry index in `directions` and, when `laplacian` is not empty, a
        zero Laplacian summing the directions at those positions among
        them; a jet without directions is the value alone. The record
        holds a chain of runs, each keeping only its last jet: one run per
        layer when the record trains `group`, else one run of every layer.
        Returns the last run, which only ``select`` reads."""
        layers = tuple(layers)
        if any(layer[3] not in _ACTIVATIONS for layer in layers):
            raise RecordError("unknown activation in a layer run")
        if self._ops[row.index] != _STACK:
            raise RecordError("a network read takes a row made by stack")
        directions, laplacian = tuple(directions), tuple(laplacian)
        run = 1 if self._trained is None or group in self._trained else len(layers)
        for start in range(0, len(layers), run):
            row = self._push(_LAYERS, (row.index, group, layers[start:start + run],
                                       directions, laplacian))
        return row

    def mean(self, x: DiffScalar) -> DiffScalar:
        """Mean over the lockstep batch (count fixed at record time) of a
        batch or a scalar; a row, several values per point, is refused."""
        self._not_layers(x)
        v = x.value
        if _is_batch(v) and v.ndim != 1:
            raise RecordError("mean takes a batch or a scalar, not a row")
        return self._push(_SUM, (x.index, len(v) if _is_batch(v) else 1))

    # ------------------------------------------------------------------
    # replay

    def replay(self) -> None:
        """Re-evaluate, in record order, every node whose value reads a
        parameter vector changed since the last replay, the one thing a
        replay follows. Changes are detected bitwise, so 0.0 -> -0.0
        counts. Every other stored value is left as it is."""
        changed = self._changed
        for name, values in self._groups.items():
            snapshot = self._snapshots[name]
            if not _same_bits(values, snapshot):
                changed.add(name)
                np.copyto(snapshot, values)
        if not changed:
            return
        stale = self._mask(changed)
        ops, args, vals = self._ops, self._args, self._vals
        for i, reads in enumerate(self._reads):
            if reads & stale:
                vals[i] = self._eval(i, ops[i], args[i], vals[i])
        # cleared only once every stale node is recomputed, so a replay
        # that raised leaves the changes for the next one
        changed.clear()

    # ------------------------------------------------------------------
    # derivatives

    # -- raw backward: plain numbers, no new nodes ---------------------

    def backward_values(self, output: DiffScalar,
                        param_groups: Sequence[str]) -> dict[str, np.ndarray]:
        """Gradients of `output` with respect to each parameter group, as
        plain vectors keyed by group name.

        Every adjoint takes the shape of its node's value: a node without a
        batch axis reached through lockstep-batched paths receives the
        batch-summed adjoint, so parameter gradients of a batched mean come
        out already reduced, and a batched node reached with one adjoint
        for all points holds it at every point. Layer runs add their
        weight and bias adjoints straight into the gradient of the group
        they read.
        """
        grads = {g: np.zeros(len(self._groups[g])) for g in param_groups}
        ops, args, vals = self._ops, self._args, self._vals
        # a node takes an adjoint only when its value reads one of the groups
        useful, reads = self._mask(param_groups), self._reads
        adj: dict[int, object] = {}

        def accumulate(node, contribution):
            c_dim = contribution.ndim if _is_batch(contribution) else 0
            if c_dim == 0 and contribution == 0.0:
                return  # adds ±0 to every gradient entry it reaches
            value = vals[node]
            v_dim = value.ndim if _is_batch(value) else 0
            if c_dim > v_dim:
                contribution = contribution.sum(axis=0)
                if not v_dim:
                    contribution = float(contribution)
            elif c_dim < v_dim:
                contribution = np.broadcast_to(contribution, value.shape)
            cur = adj.get(node)
            adj[node] = contribution if cur is None else cur + contribution

        accumulate(output.index, 1.0)

        for i in range(output.index, -1, -1):
            a_out = adj.pop(i, None)
            if a_out is None:
                continue
            op = ops[i]
            a = args[i]
            if op == _LAYERS:  # first: the most frequent node it visits
                # recompute the input jet of every layer (none for one layer
                # reading a run; the seed for a run reading a row), then go
                # back through the layers
                x, group, layers, _, laplacian = a
                theta = self._groups[group]
                jets = [self._run_input(a)]
                for layer in layers[:-1]:
                    jets.append(run_layers(theta, (layer,), jets[-1], laplacian))
                y = vals[i][0]
                for k in range(len(layers) - 1, -1, -1):
                    jet = jets.pop()
                    a_out = self._layer_backward(group, layers[k], laplacian, a_out, jet, y,
                                                 grads, k > 0 or reads[x] & useful)
                    y = jet[0]
                if reads[x] & useful:
                    # a run takes the whole jet's adjoint, a row its value row's
                    accumulate(x, a_out if ops[x] == _LAYERS else a_out[0])
            elif (rule := _POINTWISE.get(op)) is not None:
                operands = [vals[k] for k in a]
                for k, adjoint in zip(a, rule.adjoints):
                    if reads[k] & useful:
                        accumulate(k, adjoint(a_out, *operands, vals[i]))
            elif op == _SUM:
                x, n = a
                if reads[x] & useful:
                    accumulate(x, a_out / n)
            elif op == _STACK:
                for k, x in enumerate(a):
                    if reads[x] & useful:
                        accumulate(x, a_out[k])
            elif op == _SELECT:
                x, k, part = a
                if reads[x] & useful:
                    # every select of a run adds into one zero adjoint,
                    # which only the run reads (``_not_layers``)
                    jet = adj.get(x)
                    if jet is None:
                        jet = adj[x] = np.zeros(np.shape(vals[x]))
                    jet[part, k] += a_out
            elif op == _PART:
                x, lo, hi = a
                if reads[x] & useful:
                    batch = np.zeros(len(vals[x]))
                    batch[lo:hi] = a_out
                    accumulate(x, batch)
        return grads

    def _layer_backward(self, group: str, layer: tuple, laplacian, adjoint: np.ndarray,
                        jet: np.ndarray, y: np.ndarray, grads: dict, need_input: bool):
        """One layer of the backward pass. `adjoint` is that of the layer's
        output jet, whose value row is `y`, and `jet` its input jet. The
        adjoint becomes that of the layer's products W x + b, W G_j and
        W L, in place: only the layer holds it, since only selects and
        the next layer or run read a layer (``_not_layers``) and each
        builds a fresh adjoint. Adds the weight and bias gradients to
        grads[group] when present and returns the adjoint of `jet`, or
        None without `need_input`."""
        offset, shape, bias, act = layer
        w, _ = layer_params(self._groups[group], layer)
        adjoint = _layer_adjoint(adjoint, y, jet, w, act, laplacian)
        g = grads.get(group)
        if g is not None:
            # one product per row of the jet, summed over the rows
            weights = np.matmul(adjoint, jet.transpose(0, 2, 1)).sum(axis=0)
            g[offset:offset + w.size] += weights.ravel()
            if bias is not None:
                g[bias:bias + shape[0]] += adjoint[0].sum(axis=1)
        return np.matmul(w.T, adjoint) if need_input else None


# ----------------------------------------------------------------------
# elementary functions usable on DiffScalar, Jet or plain numbers

def _elementary(x, op: int):
    """Recorded `op` of a DiffScalar, its value of a plain number, and the
    chain rule on a jet with the op's slope and curvature."""
    rule = _POINTWISE[op]
    if isinstance(x, Jet):
        return x.apply(_elementary(x.value, op), rule.slope, rule.curvature)
    if isinstance(x, DiffScalar):
        return x.tape._unary(op, x)
    return rule.value(x)


def exp(x):
    return _elementary(x, _EXP)


def sqrt(x):
    """Square root; a negative operand raises EvaluationError."""
    return _elementary(x, _SQRT)


def relu(x):
    """max(0, x); derivative at exactly 0 is defined as 0."""
    return _elementary(x, _RELU)


def step(x):
    """1 where x > 0, else 0; recorded with zero derivative everywhere."""
    return _elementary(x, _STEP)


def sin(x):
    return _elementary(x, _SIN)


def cos(x):
    return _elementary(x, _COS)


def sigmoid(x):
    """1/(1+exp(-x)); recorded as one primitive with slope s(1-s)."""
    return _elementary(x, _SIGMOID)


def detach(x):
    """Value pass-through that blocks derivative flow: a constant jet of a
    jet's value."""
    return _elementary(x, _DETACH)


# ----------------------------------------------------------------------
# functional front ends

def _point_value(part) -> float:
    """A jet part at the one point of a one-point record."""
    return float(np.asarray(part.value if isinstance(part, DiffScalar) else part).item())


def closed_form(tape: Tape, field: Callable, inputs, directions, laplacian=()) -> Jet:
    """Jet of a closed-form field: `field` called on the jets of its
    `inputs` (``input_jets``). A value that reads no input is recorded as a
    constant."""
    jets = input_jets(inputs, directions, laplacian)
    jet = jets[0].lift(field(*jets))
    value = jet.value if isinstance(jet.value, DiffScalar) else tape.constant(jet.value)
    return Jet(value, jet.grads, jet.laplacian, jet.sums)


def _point_jet(f: Callable, x: Sequence[float], directions, laplacian=()) -> Jet:
    """``f(*jets)`` recorded on the jets of one-point batches at `x`."""
    tape = Tape()
    return closed_form(tape, f, [tape.batch([v]) for v in x], directions, laplacian)


def grad_inputs(f: Callable, x: Sequence[float]) -> list[float]:
    """First derivatives of ``f(*inputs)`` with respect to every input at
    the point `x`."""
    return [_point_value(g) for g in _point_jet(f, x, range(len(x))).grads]


def second_derivative(f: Callable, x: Sequence[float], i: int) -> float:
    """d2 f / dx_i^2 at the point `x`: the Laplacian along x_i alone."""
    return _point_value(_point_jet(f, x, (i,), (i,)).laplacian)


def fd_check(f: Callable, x: Sequence[float], step: float) -> float:
    """Max relative discrepancy of the first and pure second derivatives of
    ``f(*inputs)`` against central finite differences at ``x``."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = [float(v) for v in x]

    def feval(pt):
        return _point_value(_point_jet(f, pt, ()).value)

    worst = 0.0
    g = grad_inputs(f, x)
    for i in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[i] += step
        lo[i] -= step
        first = (feval(hi) - feval(lo)) / (2.0 * step)
        second = (feval(hi) - 2.0 * feval(x) + feval(lo)) / (step * step)
        for ad, fd in ((g[i], first), (second_derivative(f, x, i), second)):
            worst = max(worst, abs(ad - fd) / max(abs(ad), abs(fd), 1.0))
    return worst
