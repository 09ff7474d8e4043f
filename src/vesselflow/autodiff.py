"""Recorded autodiff with nested derivatives, one node per network layer.

A Tape is an append-only record of operations. DiffScalar handles wrap
record entries; Python arithmetic on them appends nodes eagerly. Each kind
of derivative is taken one way. Input derivatives are forward tangents
written into the record (``Tape.grad``), so a derivative is itself a
recorded, differentiable quantity: that is what lets second space and time
derivatives stay trainable, and a second derivative is the tangent of a
tangent. Parameter gradients come from one backward pass that produces
plain numbers (``Tape.backward_values``).

Every input leaf is a lockstep batch: a 1-d array holding one
independent value per collocation point, evaluated together; a single
point is a batch of one. Constants, means and tangents that are equal at
every point are float64 scalars, which broadcast against batches as in
numpy. Every operation on pointwise values is elementwise and
``Tape.mean`` collapses a batch to a scalar. The record holds one node per
network layer, not per neuron: a stack joins k pointwise nodes into a row
of k (shape (n, k), or (k,) for a row of scalars), a layer (affine) node
computes ``act(x @ W.T + b)`` in one product with W and b read by offset
from a registered parameter vector and `act` a sigmoid, a relu or
nothing, and a select node reads one entry of the row back out. The
pre-activation ``x @ W.T + b`` is never stored: no derivative rule reads
it. ``activate_in_place`` is the one activation arithmetic of layer
nodes, ``sigmoid``/``relu`` and ``nets.FieldNetwork.evaluate``, so
``evaluate`` equals a recorded forward bit for bit. Layer nodes and
``evaluate`` activate their freshly computed product in place;
``activate`` works on a copy and leaves its input as it is.

Tangents close over the same ops. The slope of an activation is one
node per layer: the step of the layer's own output for relu (positive
exactly where its input is), and s(1 - s) for sigmoid. The tangent of a
relu layer node is one masked node: the same affine map without bias or
activation applied to the input's tangent, multiplied in place by the
layer's step. The step's own tangent is zero, so the tangent of a masked
node along any root is the same mask applied to the tangent of its
input, and the bias-free product is never stored. The tangent of a
sigmoid layer node is its slope times that bias-free affine as a node of
its own, shared by every request, because the slope's own tangent, the
curvature s(1 - s)(1 - 2s), multiplies the same product again. Stacks
and selects map to stacks and selects of tangents, so input derivatives
go through whole layers. The backward pass gives every adjoint the shape
of its node's value: summed over a batch axis the node lacks, repeated
over one it has. It drops a contribution that is a scalar exact zero,
such as the adjoint of a term whose weight is 0: that adds ±0 to every
gradient entry it reaches, which leaves the entry as it is, so a node
that receives no other contribution is never visited. At an activation
node it multiplies the adjoint by the slope, read from the slope node
``grad`` recorded when there is one and computed from the stored output
otherwise (the same bits either way), and at a masked node by the mask,
summed over the batch axis when the input has none, before the affine
rules.

Replaying a record after overwriting leaf or parameter values
re-evaluates, in record order, only the nodes whose value reads (through
any operand, ``detach`` and ``step`` included) a leaf written by
``set_value`` or a parameter vector whose bits differ from its state at
the last replay. Those nodes go through the same floating-point
operations in the same order as when they were recorded, and every other
stored value is already what they would give, so a replay is
bit-identical to recomputing the whole record.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# Node opcodes. LEAF values are set externally and CONST values are
# frozen. The weights of an AFFINE node are read from a named parameter
# vector on each replay; they are the only parameters a record reads. An
# AFFINE node without bias or activation may carry a mask, the step node
# of a relu layer, which multiplies its product: that layer's tangent.
_LEAF = 0
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
_AFFINE = 18

# Ops whose adjoint does not propagate to operands. The step function is
# the recorded derivative of relu; its own derivative is zero everywhere
# (the kink at 0 is assigned derivative 0).
_NON_DIFFERENTIABLE = (_DETACH, _STEP)
_INPUTS = (_LEAF, _CONST)
_ACTIVATIONS = ("sigmoid", "relu", None)


class EvaluationError(RuntimeError):
    """A primitive hit an invalid input (division by zero, sqrt of a negative)."""


class RecordError(RuntimeError):
    """The record was used inconsistently (mixed tapes, bad batch shapes)."""


def _is_batch(v):
    return isinstance(v, np.ndarray)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality of two float64 vectors: -0.0 differs from 0.0 and
    a NaN equals itself."""
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def activate_in_place(act, z: np.ndarray) -> np.ndarray:
    """Activation `act` ("sigmoid", "relu" or None for none) of a float64
    array, written over it and returned: the one arithmetic of recorded
    activations, layer nodes and ``nets.FieldNetwork.evaluate``. For
    sigmoid it is 1 / (1 + exp(-z)), one operation at a time."""
    if act == "sigmoid":
        np.negative(z, out=z)
        with np.errstate(over="ignore"):
            np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
    elif act == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def activate(act, z):
    """Activation `act` of a plain value, which is left unchanged: the
    arithmetic of ``activate_in_place`` on a float64 copy."""
    if act is None:
        return z
    return activate_in_place(act, np.array(z, dtype=np.float64))[()]


def _step_value(v):
    """1.0 where v > 0, else 0.0 (NaN included)."""
    return np.greater(v, 0.0).astype(np.float64)


def _slope_value(act, out):
    """Derivative of activation `act` from its output `out`: s(1 - s) for
    sigmoid, the step of the output for relu."""
    return out * (1.0 - out) if act == "sigmoid" else _step_value(out)


def _entry(row, k):
    """Entry k of a row value: a batch (n,) from (n, k), else a float."""
    return row[:, k] if row.ndim == 2 else float(row[k])


def _outer_sum(a, b):
    """Outer product of rows a and b, summed over their batch axis if any:
    (n, m) and (n, k) give (m, k)."""
    return np.outer(a, b) if a.ndim == 1 else a.T @ b


class DiffScalar:
    """Handle to one entry of a Tape: a lockstep batch, a layer row or a
    scalar equal at every point. Behaves like a real number."""

    __slots__ = ("tape", "index")

    def __init__(self, tape: "Tape", index: int):
        self.tape = tape
        self.index = index

    @property
    def value(self):
        return self.tape._vals[self.index]

    def __repr__(self):
        return f"DiffScalar({self.value!r} @ node {self.index})"

    def _coerce(self, other) -> "DiffScalar":
        if isinstance(other, DiffScalar):
            if other.tape is not self.tape:
                raise RecordError("operands belong to different tapes")
            return other
        return self.tape.constant(other)

    def __add__(self, other):
        return self.tape._binary(_ADD, self, self._coerce(other))

    def __radd__(self, other):
        return self.tape._binary(_ADD, self._coerce(other), self)

    def __sub__(self, other):
        return self.tape._binary(_SUB, self, self._coerce(other))

    def __rsub__(self, other):
        return self.tape._binary(_SUB, self._coerce(other), self)

    def __mul__(self, other):
        return self.tape._binary(_MUL, self, self._coerce(other))

    def __rmul__(self, other):
        return self.tape._binary(_MUL, self._coerce(other), self)

    def __truediv__(self, other):
        return self.tape._binary(_DIV, self, self._coerce(other))

    def __rtruediv__(self, other):
        return self.tape._binary(_DIV, self._coerce(other), self)

    def __neg__(self):
        return self.tape._unary(_NEG, self)


class Tape:
    """Append-only computation record over batched, layer and scalar values."""

    def __init__(self):
        self._ops: list[int] = []
        self._args: list[tuple] = []
        self._vals: list = []
        self._groups: dict[str, np.ndarray] = {}
        self._shared: dict[tuple, int] = {}  # (op, args) -> node, see _node
        # per root, node -> its tangent node (None for zero)
        self._tangents: dict[int, dict[int, "int | None"]] = {}
        self._slope_owner: dict[int, int] = {}  # sigmoid slope -> its node
        # Replay bookkeeping: each group's bits at the last replay, and the
        # groups and leaf indices changed since then.
        self._snapshots: dict[str, np.ndarray] = {}
        self._changed: set = set()
        # Walk results that depend only on the record's structure, for the
        # current record length.
        self._memo_len = 0
        self._memo: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # construction

    def __len__(self):
        return len(self._ops)

    def _push(self, op: int, args: tuple, value=None) -> DiffScalar:
        """Append a node; a value of None is computed from the operands."""
        self._ops.append(op)
        self._args.append(args)
        self._vals.append(value)
        i = len(self._ops) - 1
        if value is None:
            self._vals[i] = self._eval(i)
        return DiffScalar(self, i)

    def _node(self, op: int, *args) -> int:
        """Index of the node computing `op` on `args`, recorded on first
        use and shared by every later request. Constants, stacks and every
        node ``grad`` records come from here."""
        key = (op, args)
        found = self._shared.get(key)
        if found is None:
            found = self._shared[key] = self._push(op, args).index
        return found

    def batch(self, values) -> DiffScalar:
        """New input leaf holding a lockstep batch of independent reals;
        one point is a batch of one."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise RecordError("batched leaves must be 1-d")
        return self._push(_LEAF, (), arr.copy())

    def constant(self, value: float) -> DiffScalar:
        """Frozen real value; one node per value, shared by every request."""
        return DiffScalar(self, self._node(_CONST, float(value)))

    def batch_constant(self, values) -> DiffScalar:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise RecordError("batched constants must be 1-d")
        return self._push(_CONST, (), arr.copy())

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

    def set_value(self, leaf: DiffScalar, value) -> None:
        """Overwrite an input leaf before a replay. Batch length must not change."""
        if self._ops[leaf.index] != _LEAF:
            raise RecordError("only leaves can be overwritten")
        arr = np.asarray(value, dtype=np.float64)
        if arr.shape != self._vals[leaf.index].shape:
            raise RecordError("batch shape changed on leaf overwrite")
        self._vals[leaf.index] = arr.copy()
        self._changed.add(leaf.index)

    # ------------------------------------------------------------------
    # primitive evaluation (shared by eager construction and replay)

    def _check_pair(self, a, b):
        va, vb = self._vals[a], self._vals[b]
        if _is_batch(va) and _is_batch(vb) and va.shape != vb.shape:
            raise RecordError("lockstep batches of different lengths combined")

    def _weight(self, group: str, offset: int, shape: tuple[int, int]) -> np.ndarray:
        rows, cols = shape
        return self._groups[group][offset:offset + rows * cols].reshape(rows, cols)

    def _eval(self, i: int):
        op = self._ops[i]
        args = self._args[i]
        vals = self._vals
        if op == _CONST:
            return args[0]
        if op == _ADD:
            return vals[args[0]] + vals[args[1]]
        if op == _SUB:
            return vals[args[0]] - vals[args[1]]
        if op == _MUL:
            return vals[args[0]] * vals[args[1]]
        if op == _DIV:
            d = vals[args[1]]
            if np.any(d == 0.0):
                raise EvaluationError(f"node {i} (div): division by zero")
            return vals[args[0]] / d
        if op == _NEG:
            return -vals[args[0]]
        if op == _EXP:
            return np.exp(vals[args[0]])
        if op == _SQRT:
            v = vals[args[0]]
            if np.any(v < 0.0):
                raise EvaluationError(f"node {i} (sqrt): negative operand")
            return np.sqrt(v)
        if op == _RELU:
            return activate("relu", vals[args[0]])
        if op == _STEP:
            return _step_value(vals[args[0]])
        if op == _SIN:
            return np.sin(vals[args[0]])
        if op == _COS:
            return np.cos(vals[args[0]])
        if op == _SIGMOID:
            return activate("sigmoid", vals[args[0]])
        if op == _DETACH:
            return vals[args[0]]
        if op == _SUM:
            v, n = vals[args[0]], args[1]
            if not _is_batch(v):
                return v / n
            s = np.sum(v, axis=0) / n
            return float(s) if s.ndim == 0 else s
        if op == _STACK:
            return np.stack(np.broadcast_arrays(*[vals[a] for a in args]), axis=-1)
        if op == _SELECT:
            return _entry(vals[args[0]], args[1])
        if op == _AFFINE:
            x, group, offset, shape, bias, act, mask = args
            out = vals[x] @ self._weight(group, offset, shape).T
            if bias is not None:
                out += self._groups[group][bias:bias + shape[0]]
            if mask is not None:
                m = vals[mask]
                if out.shape != m.shape:  # a constant-row tangent
                    return out * m
                out *= m
            return activate_in_place(act, out)
        raise RecordError(f"node {i}: op {op} cannot be re-evaluated")

    def _binary(self, op, a: DiffScalar, b: DiffScalar) -> DiffScalar:
        self._check_pair(a.index, b.index)
        return self._push(op, (a.index, b.index))

    def _unary(self, op, a: DiffScalar) -> DiffScalar:
        return self._push(op, (a.index,))

    # public primitives beyond operator syntax -------------------------

    def stack(self, xs: Sequence[DiffScalar]) -> DiffScalar:
        """Row of k pointwise nodes, shape (k,) or (n, k) for a batch.
        Stacking the same nodes again returns the same row."""
        return DiffScalar(self, self._node(_STACK, *(x.index for x in xs)))

    def select(self, x: DiffScalar, k: int) -> DiffScalar:
        """Entry `k` of a row node."""
        return self._push(_SELECT, (x.index, k))

    def affine(self, x: DiffScalar, group: str, offset: int,
               shape: tuple[int, int], bias: "int | None" = None,
               act: "str | None" = None) -> DiffScalar:
        """``act(x W^T + b)`` over a row node x, one node for a whole layer.
        W is the row-major (rows, cols) block of parameter group `group` at
        `offset`, b the `rows` entries at `bias` (no bias when None), and
        `act` is "sigmoid", "relu" or None (no activation)."""
        if act not in _ACTIVATIONS:
            raise RecordError(f"unknown activation {act!r}")
        return self._push(_AFFINE, (x.index, group, offset, tuple(shape), bias, act, None))

    def mean(self, x: DiffScalar) -> DiffScalar:
        """Mean over the lockstep batch (count fixed at record time)."""
        v = x.value
        n = int(v.shape[0]) if _is_batch(v) else 1
        return self._push(_SUM, (x.index, n))

    def detach(self, x: DiffScalar) -> DiffScalar:
        """Value pass-through that blocks derivative flow."""
        return self._unary(_DETACH, x)

    # ------------------------------------------------------------------
    # replay

    def replay(self) -> None:
        """Re-evaluate, in record order, every node whose value reads a
        leaf overwritten by ``set_value`` or a parameter vector changed
        since the last replay. Changes are detected bitwise, so 0.0 ->
        -0.0 counts. Every other stored value is left as it is."""
        changed = self._changed
        for name, values in self._groups.items():
            snapshot = self._snapshots[name]
            if not _same_bits(values, snapshot):
                changed.add(name)
                np.copyto(snapshot, values)
        if not changed:
            return
        vals = self._vals
        for i in self._stale_nodes(frozenset(changed)):
            vals[i] = self._eval(i)
        # cleared only once every stale node is recomputed, so a replay
        # that raised leaves the changes for the next one
        changed.clear()

    def _memoized(self, key: tuple, build: Callable):
        """Cached ``build()`` for a walk over the record as it is now."""
        if self._memo_len != len(self._ops):
            self._memo = {}
            self._memo_len = len(self._ops)
        found = self._memo.get(key)
        if found is None:
            found = self._memo[key] = build()
        return found

    def _stale_nodes(self, changed: frozenset) -> list[int]:
        """Non-leaf nodes whose value reads, through any operand, a leaf
        index or a parameter group in `changed`, in record order."""
        def build():
            ops, args = self._ops, self._args
            hit = [False] * len(ops)
            order = []
            for i, op in enumerate(ops):
                if op == _LEAF:
                    hit[i] = i in changed
                    continue
                if (op == _AFFINE and args[i][1] in changed
                        or any(hit[a] for a in self._operands(i))):
                    hit[i] = True
                    order.append(i)
            return order
        return self._memoized(("replay", changed), build)

    # ------------------------------------------------------------------
    # derivatives

    def _operands(self, i: int) -> tuple:
        """Record indices node i reads its value from (weights excluded)."""
        op = self._ops[i]
        if op in _INPUTS:
            return ()
        if op in (_SUM, _SELECT):
            return self._args[i][:1]
        if op == _AFFINE:
            x, mask = self._args[i][0], self._args[i][6]
            return (x,) if mask is None else (x, mask)
        return self._args[i]

    # -- input derivatives: forward tangents written into the record ----

    def grad(self, output: DiffScalar, wrt: Sequence[DiffScalar]) -> list[DiffScalar]:
        """Derivatives of `output` with respect to each node in `wrt`,
        written into the record so they can be differentiated again.

        Each root is an independent input: its tangent, seeded with 1, is
        pushed forward through the ancestors of `output`, and paths that
        merely produce the root's value are not followed. Tangents are
        cached per root, so later calls reuse the layers earlier ones
        recorded, and a second derivative is the tangent of a tangent. A
        derivative equal at every point may lack the batch axis. A tangent
        cannot pass through a batch mean; record the mean of the per-point
        tangent instead. Affine weights are not nodes: parameter gradients
        come from ``backward_values``.
        """
        roots = [w.index for w in wrt]
        for b in roots:
            if any(a < b and self._tangent(b, a) is not None for a in roots):
                raise RecordError(f"root node {b} depends on another root")
        out = []
        for r in roots:
            t = self._tangent(output.index, r)
            out.append(self.constant(0.0) if t is None else DiffScalar(self, t))
        return out

    def _tangent(self, output: int, root: int) -> "int | None":
        """Node holding d output / d root, or None where it is zero. Nodes
        before `root` cannot depend on it; the rest are walked with an
        explicit stack, operands first, and cached under `root`."""
        tangents = self._tangents.setdefault(root, {root: self.constant(1.0).index})
        todo = [output] if output >= root else []
        while todo:
            i = todo[-1]
            if i in tangents:
                todo.pop()
                continue
            owner = self._sigmoid_of_slope(i, root)
            operands = (() if self._ops[i] in _NON_DIFFERENTIABLE
                        else self._args[owner][:1] if owner is not None
                        else self._operands(i))
            missing = [a for a in operands if a >= root and a not in tangents]
            if missing:
                todo.extend(missing)
            else:
                tangents[todo.pop()] = self._tangent_rule(i, root, tangents)
        return tangents.get(output)

    def _sigmoid_of_slope(self, i: int, root: int) -> "int | None":
        """The sigmoid (or sigmoid layer) whose slope is node i, when the
        tangent along `root` reaches that slope through the node's operand."""
        owner = self._slope_owner.get(i)
        return owner if owner is not None and owner > root else None

    def _tangent_rule(self, i: int, root: int, tangents: dict) -> "int | None":
        """Record the tangent of node i from its operands' tangents (None
        for zero) and return its index, or None when it is zero."""
        op, a = self._ops[i], self._args[i]
        t = tangents.get
        node, mul = self._node, self._push_mul

        def plus(x, y):
            return y if x is None else x if y is None else node(_ADD, x, y)

        if op in _INPUTS or op in _NON_DIFFERENTIABLE:
            return None
        owner = self._sigmoid_of_slope(i, root)
        if owner is not None:
            # d/dx of a sigmoid slope s(1 - s) is one curvature node,
            # s(1 - s)(1 - 2s), times the pre-activation's tangent
            tz = self._preactivation_tangent(owner, tangents)
            return None if tz is None else mul(self._curvature(owner), tz)
        if op == _ADD:
            return plus(t(a[0]), t(a[1]))
        if op == _SUB:
            ta, tb = t(a[0]), t(a[1])
            if tb is None:
                return ta
            return node(_NEG, tb) if ta is None else node(_SUB, ta, tb)
        if op == _MUL:
            ta, tb = t(a[0]), t(a[1])
            return plus(None if ta is None else mul(ta, a[1]),
                        None if tb is None else mul(a[0], tb))
        if op == _DIV:  # (ta - out * tb) / den
            ta, tb = t(a[0]), t(a[1])
            if tb is not None:
                ratio = mul(i, tb)
                ta = node(_NEG, ratio) if ta is None else node(_SUB, ta, ratio)
            return None if ta is None else node(_DIV, ta, a[1])
        if op == _STACK:
            rows = [t(x) for x in a]
            if all(r is None for r in rows):
                return None
            zero = self.constant(0.0).index
            return node(_STACK, *(zero if r is None else r for r in rows))
        tx = t(a[0])
        if tx is None:
            return None
        if op == _NEG:
            return node(_NEG, tx)
        if op == _EXP:
            return mul(i, tx)
        if op == _SQRT:
            return node(_DIV, mul(self.constant(0.5).index, tx), i)
        if op in (_RELU, _SIGMOID):
            return mul(self._slope(i), tx)
        if op == _SIN:
            return mul(node(_COS, a[0]), tx)
        if op == _COS:
            return node(_NEG, mul(node(_SIN, a[0]), tx))
        if op == _SUM:
            raise RecordError(f"node {i} (mean): the tangent along root node {root} "
                              "cannot pass a batch mean; take the mean of the tangent")
        if op == _SELECT:
            return node(_SELECT, tx, a[1])
        if op == _AFFINE:
            act, mask = a[5], a[6]
            if act == "sigmoid":
                tz = self._preactivation_tangent(i, tangents)
                return mul(self._slope(i), tz)
            # a relu layer's tangent is masked by its step; a masked node's
            # tangent keeps the mask, whose own tangent is zero
            if act == "relu":
                mask = self._slope(i)
            return node(_AFFINE, tx, *a[1:4], None, None, mask)
        raise RecordError(f"node {i}: cannot differentiate op {op}")  # pragma: no cover

    def _activation(self, i: int) -> "str | None":
        """Activation that node i applies ("relu", "sigmoid" or None): its
        own for a relu or sigmoid node, its layer's for an affine node."""
        op = self._ops[i]
        if op == _AFFINE:
            return self._args[i][5]
        return "relu" if op == _RELU else "sigmoid" if op == _SIGMOID else None

    def _preactivation_tangent(self, i: int, tangents: dict) -> "int | None":
        """Tangent of what sigmoid node i activates, from the tangent of
        its operand: that tangent itself for a sigmoid node, and for a
        sigmoid layer node the same affine map without bias or activation,
        one node shared by the layer's tangent and its slope's tangent.
        A relu layer's tangent is one masked node that stores no such
        product: the step's tangent is zero, so nothing reads it again."""
        tx = tangents.get(self._args[i][0])
        if tx is None or self._ops[i] != _AFFINE:
            return tx
        return self._node(_AFFINE, tx, *self._args[i][1:4], None, None, None)

    def _slope(self, i: int) -> int:
        """Recorded derivative of activation node i: the step of its own
        output for relu (positive exactly where its input is), which a
        relu layer's tangents carry as their mask; s(1 - s) for sigmoid,
        which multiplies a separate bias-free product."""
        if self._activation(i) == "relu":
            return self._node(_STEP, i)
        slope = self._node(_MUL, i, self._node(_SUB, self.constant(1.0).index, i))
        self._slope_owner[slope] = i
        return slope

    def _recorded_slope(self, i: int) -> "int | None":
        """The slope node of activation node i if ``grad`` has recorded
        one, else None. Its value is what ``_slope_value`` computes."""
        shared = self._shared
        if self._activation(i) == "relu":
            return shared.get((_STEP, (i,)))
        one = shared.get((_CONST, (1.0,)))
        return shared.get((_MUL, (i, shared.get((_SUB, (one, i))))))

    def _curvature(self, i: int) -> int:
        """Second derivative s(1 - s)(1 - 2s) of sigmoid node i."""
        slope = self._slope(i)
        complement = self._args[slope][1]
        return self._node(_MUL, slope, self._node(_SUB, complement, i))

    def _push_mul(self, a: int, b: int) -> int:
        one = self._shared.get((_CONST, (1.0,)))
        if one is not None:
            if a == one:
                return b
            if b == one:
                return a
        return self._node(_MUL, a, b)

    # -- raw backward: plain numbers, no new nodes ---------------------

    def _useful_mask(self, param_groups: Sequence[str]) -> list[bool]:
        """Flags of the nodes that depend on a parameter of one of the
        groups: the layer nodes reading them and everything downstream."""
        ops, args = self._ops, self._args
        roots = [i for i in range(len(ops))
                 if ops[i] == _AFFINE and args[i][1] in param_groups]
        mask = [False] * len(ops)
        for r in roots:
            mask[r] = True
        for i in range(min(roots, default=0), len(ops)):
            if not mask[i] and ops[i] not in _NON_DIFFERENTIABLE:
                mask[i] = any(mask[a] for a in self._operands(i))
        return mask

    def backward_values(self, output: DiffScalar,
                        param_groups: Sequence[str]) -> dict[str, np.ndarray]:
        """Gradients of `output` with respect to each parameter group, as
        plain vectors keyed by group name.

        Every adjoint takes the shape of its node's value: a node without a
        batch axis reached through lockstep-batched paths receives the
        batch-summed adjoint, so parameter gradients of a batched mean come
        out already reduced, and a batched node reached with one adjoint
        for all points holds it at every point. Affine nodes add their
        weight and bias adjoints straight into the gradient of the group
        they read.
        """
        grads = {g: np.zeros(len(self._groups[g])) for g in param_groups}
        ops, args, vals = self._ops, self._args, self._vals
        useful = self._memoized(("useful", tuple(param_groups)),
                                lambda: self._useful_mask(param_groups))
        adj: dict[int, object] = {}

        def slope(i):
            recorded = self._recorded_slope(i)
            if recorded is not None:
                return vals[recorded]
            return _slope_value(self._activation(i), vals[i])

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
            if a_out is None or not useful[i]:
                continue
            op = ops[i]
            a = args[i]
            if op == _ADD:
                if useful[a[0]]:
                    accumulate(a[0], a_out)
                if useful[a[1]]:
                    accumulate(a[1], a_out)
            elif op == _SUB:
                if useful[a[0]]:
                    accumulate(a[0], a_out)
                if useful[a[1]]:
                    accumulate(a[1], -a_out)
            elif op == _MUL:
                if useful[a[0]]:
                    accumulate(a[0], a_out * vals[a[1]])
                if useful[a[1]]:
                    accumulate(a[1], a_out * vals[a[0]])
            elif op == _DIV:
                num, den = a
                if useful[num]:
                    accumulate(num, a_out / vals[den])
                if useful[den]:
                    accumulate(den, -a_out * vals[i] / vals[den])
            elif op == _NEG:
                if useful[a[0]]:
                    accumulate(a[0], -a_out)
            elif op == _EXP:
                if useful[a[0]]:
                    accumulate(a[0], a_out * vals[i])
            elif op == _SQRT:
                if useful[a[0]]:
                    accumulate(a[0], a_out * 0.5 / vals[i])
            elif op in (_RELU, _SIGMOID):
                if useful[a[0]]:
                    accumulate(a[0], a_out * slope(i))
            elif op == _SIN:
                if useful[a[0]]:
                    accumulate(a[0], a_out * np.cos(vals[a[0]]))
            elif op == _COS:
                if useful[a[0]]:
                    accumulate(a[0], -a_out * np.sin(vals[a[0]]))
            elif op == _SUM:
                x, n = a
                if useful[x]:
                    accumulate(x, a_out / n)
            elif op == _STACK:
                for k, x in enumerate(a):
                    if useful[x]:
                        accumulate(x, _entry(a_out, k))
            elif op == _SELECT:
                x, k = a
                if useful[x]:
                    row = np.zeros(np.shape(a_out) + np.shape(vals[x])[-1:])
                    row[..., k] = a_out
                    accumulate(x, row)
            elif op == _AFFINE:
                x, group, offset, shape, bias, act, mask = a
                if act is not None:
                    a_out = a_out * slope(i)
                elif mask is not None:
                    a_out = a_out * vals[mask]
                    if a_out.ndim > vals[x].ndim:  # a constant-row tangent
                        a_out = a_out.sum(axis=0)
                w = self._weight(group, offset, shape)
                if useful[x]:
                    accumulate(x, a_out @ w)
                g = grads.get(group)
                if g is not None:
                    g[offset:offset + w.size] += _outer_sum(a_out, vals[x]).ravel()
                    if bias is not None:
                        g[bias:bias + shape[0]] += a_out.sum(axis=0) if a_out.ndim == 2 else a_out
        return grads


# ----------------------------------------------------------------------
# elementary functions usable on DiffScalar or plain numbers

def exp(x):
    if isinstance(x, DiffScalar):
        return x.tape._unary(_EXP, x)
    return np.exp(x)


def sqrt(x):
    if isinstance(x, DiffScalar):
        return x.tape._unary(_SQRT, x)
    return np.sqrt(x)


def relu(x):
    """max(0, x); derivative at exactly 0 is defined as 0."""
    if isinstance(x, DiffScalar):
        return x.tape._unary(_RELU, x)
    return activate("relu", x)


def step(x):
    """1 where x > 0, else 0; recorded with zero derivative everywhere."""
    if isinstance(x, DiffScalar):
        return x.tape._unary(_STEP, x)
    return np.where(np.asarray(x) > 0.0, 1.0, 0.0)


def sin(x):
    if isinstance(x, DiffScalar):
        return x.tape._unary(_SIN, x)
    return np.sin(x)


def cos(x):
    if isinstance(x, DiffScalar):
        return x.tape._unary(_COS, x)
    return np.cos(x)


def sigmoid(x):
    """1/(1+exp(-x)); recorded as one primitive with slope s(1-s)."""
    if isinstance(x, DiffScalar):
        return x.tape._unary(_SIGMOID, x)
    return activate("sigmoid", x)


def detach(x):
    if isinstance(x, DiffScalar):
        return x.tape.detach(x)
    return x


# ----------------------------------------------------------------------
# functional front ends

def _point_value(node: DiffScalar) -> float:
    """The value of a node at the one point of a one-point record."""
    return float(np.asarray(node.value).item())


def grad_inputs(f: Callable, x: Sequence[float]) -> list[float]:
    """First derivatives of ``f(*leaves)`` with respect to every input, as
    recorded forward tangents."""
    tape = Tape()
    leaves = [tape.batch([v]) for v in x]
    return [_point_value(g) for g in tape.grad(f(*leaves), leaves)]


def second_derivative(f: Callable, x: Sequence[float], i: int, j: int) -> float:
    """d2 f / dx_i dx_j: the tangent along x_j of the tangent along x_i."""
    tape = Tape()
    leaves = [tape.batch([v]) for v in x]
    (gi,) = tape.grad(f(*leaves), [leaves[i]])
    (gij,) = tape.grad(gi, [leaves[j]])
    return _point_value(gij)


def param_grad(loss: DiffScalar, group: str) -> np.ndarray:
    """Gradient of a recorded loss with respect to a bound parameter vector.
    Entries the loss never touched are exactly zero."""
    return loss.tape.backward_values(loss, [group])[group]


def fd_check(f: Callable, x: Sequence[float], step: float) -> float:
    """Max relative discrepancy of recorded first and second derivatives
    against central finite differences at ``x``."""
    if step <= 0:
        raise ValueError("step must be positive")
    x = [float(v) for v in x]
    n = len(x)

    def feval(pt):
        tape = Tape()
        return _point_value(f(*[tape.batch([v]) for v in pt]))

    worst = 0.0
    g = grad_inputs(f, x)
    for i in range(n):
        hi = list(x)
        lo = list(x)
        hi[i] += step
        lo[i] -= step
        fd = (feval(hi) - feval(lo)) / (2.0 * step)
        worst = max(worst, abs(g[i] - fd) / max(abs(g[i]), abs(fd), 1.0))
    for i in range(n):
        for j in range(n):
            ad = second_derivative(f, x, i, j)
            if i == j:
                hi = list(x)
                lo = list(x)
                hi[i] += step
                lo[i] -= step
                fd = (feval(hi) - 2.0 * feval(x) + feval(lo)) / (step * step)
            else:
                pp = list(x); pm = list(x); mp = list(x); mm = list(x)
                pp[i] += step; pp[j] += step
                pm[i] += step; pm[j] -= step
                mp[i] -= step; mp[j] += step
                mm[i] -= step; mm[j] -= step
                fd = (feval(pp) - feval(pm) - feval(mp) + feval(mm)) / (4.0 * step * step)
            worst = max(worst, abs(ad - fd) / max(abs(ad), abs(fd), 1.0))
    return worst
