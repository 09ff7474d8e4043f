"""Recorded autodiff with nested derivatives, one node per network layer.

A Tape is an append-only record of operations. DiffScalar handles wrap
record entries; Python arithmetic on them appends nodes eagerly. Each kind
of derivative is taken one way. Input derivatives through network layers
are jets: one layer node carries a layer's value, its first derivatives
along the requested input directions and the sum of its pure second
derivatives along some of them (the r-z Laplacian, or d2/dt2). Input
derivatives of elementwise expressions are forward tangents written into
the record (``Tape.grad``), so a derivative is itself a recorded,
differentiable quantity, and a second derivative is the tangent of a
tangent. Parameter gradients come from one backward pass that produces
plain numbers (``Tape.backward_values``).

Every input leaf is a lockstep batch: a 1-d array holding one
independent value per collocation point, evaluated together; a single
point is a batch of one. Constants, means and tangents that are equal at
every point are float64 scalars, which broadcast against batches as in
numpy. Every operation on pointwise values is elementwise and
``Tape.mean`` collapses a batch to a scalar. The record holds one node per
network layer, not per neuron: a stack joins k pointwise nodes into a row
of k (shape (n, k), or (k,) for a row of scalars), a seed node makes the
row a jet, a layer node maps a jet through one layer and a select node
reads one entry of one row of a jet back out.

A jet is one node whose value has shape (m, n, k): the row of values,
then one row of first derivatives G_j per requested direction, then, when
one is requested, the row of Laplacians L; a jet without directions is
the row of values alone (m = 1). The seed starts it at the network
inputs: unit directions and L = 0. A layer node reads W and b by offset
from a registered parameter vector and maps the jet through a = x W^T + b
and y = act(a), with `act` a sigmoid, a relu or nothing:

    G'_j = s1 * (G_j W^T)
    L'   = s2 * sum over j in D of (G_j W^T)^2 + s1 * (L W^T)

where s1 and s2 are the activation's first and second derivatives at a,
read from y: s(1 - s) and s(1 - s)(1 - 2s) for sigmoid, the step of y and
0 for relu, 1 and 0 for none, and D is the Laplacian's direction set. The
pre-activation a is never stored: no derivative rule reads it.
``activate_in_place`` is the one activation arithmetic of layer nodes,
``sigmoid``/``relu`` and ``nets.FieldNetwork.evaluate``, so ``evaluate``
equals a recorded forward bit for bit: both activate their freshly
computed product in place, while ``activate`` works on a copy and leaves
its input as it is. ``Tape.grad`` does not pass a layer node: it raises
and names ``FieldNetwork.jet``.

The backward pass gives every adjoint the shape of its node's value:
summed over a batch axis the node lacks, repeated over one it has. It
drops a contribution that is a scalar exact zero, such as the adjoint of a
term whose weight is 0: that adds ±0 to every gradient entry it reaches,
which leaves the entry as it is, so a node that receives no other
contribution is never visited. At an activation it multiplies the adjoint
by the slope, computed from the stored output. At a layer node it
recomputes the products G_j W^T and L W^T from the stored input jet, so
they are never stored, uses the third derivative s(1 - s)(1 - 6s + 6s^2)
of a sigmoid, and adds the weight gradient of every row of the jet in one
product. It scales a layer node's adjoint in place, so a layer node is
read only by a select and by the next layer, which each build a fresh
adjoint; the record refuses any other operation on one.

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

from typing import Callable, NamedTuple, Sequence

import numpy as np

# Node opcodes. LEAF values are set externally and CONST values are
# frozen. The weights of a JET (layer) node are read from a named
# parameter vector on each replay; they are the only parameters a record
# reads.
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
_SEED = 18  # a row as a jet: unit directions, zero Laplacian
_JET = 19  # a network layer mapping a jet to a jet

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


def _rows_times(rows, w):
    """Each row of a stack of rows (..., cols) times W^T, as one product."""
    return (rows.reshape(-1, w.shape[1]) @ w.T).reshape(rows.shape[:-1] + (w.shape[0],))


class Jet(NamedTuple):
    """A field at a batch as record nodes: its value, its first derivatives
    along the requested input directions, and the sum of its pure second
    derivatives along the Laplacian directions (None when none was asked)."""

    value: "DiffScalar"
    grads: tuple
    laplacian: "DiffScalar | None"


class DiffScalar:
    """Handle to one entry of a Tape: a lockstep batch, a row, a jet or a
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
            x, k, part = args
            return _entry(vals[x] if part is None else vals[x][part], k)
        if op == _SEED:
            x, directions, laplacian = args
            row = vals[x]
            jet = np.zeros((1 + len(directions) + laplacian,) + row.shape)
            jet[0] = row
            for j, k in enumerate(directions):
                jet[1 + j, ..., k] = 1.0
            return jet
        if op == _JET:
            return self._jet_layer(i)
        raise RecordError(f"node {i}: op {op} cannot be re-evaluated")

    def _jet_layer(self, i: int) -> np.ndarray:
        """Value of layer node i: its input jet mapped through the layer, as
        the module docstring writes it."""
        x, group, offset, shape, bias, act, laplacian = self._args[i]
        jet = self._vals[x]
        w = self._weight(group, offset, shape)
        out = np.empty(jet.shape[:-1] + (shape[0],))
        y = out[0]
        np.matmul(jet[0], w.T, out=y)
        if bias is not None:
            y += self._groups[group][bias:bias + shape[0]]
        activate_in_place(act, y)
        if len(out) == 1:
            return out
        derivs = out[1:]
        np.matmul(jet[1:].reshape(-1, shape[1]), w.T, out=derivs.reshape(-1, shape[0]))
        if act is None:
            return out
        s1 = _slope_value(act, y)
        curvature = None
        if act == "sigmoid" and laplacian:  # read the products before they are scaled
            curvature = sum(derivs[j] * derivs[j] for j in laplacian) * (s1 * (1.0 - 2.0 * y))
        derivs *= s1
        if curvature is not None:
            derivs[-1] += curvature
        return out

    def _binary(self, op, a: DiffScalar, b: DiffScalar) -> DiffScalar:
        self._check_pair(a.index, b.index)
        self._not_layers(a, b)
        return self._push(op, (a.index, b.index))

    def _unary(self, op, a: DiffScalar) -> DiffScalar:
        self._not_layers(a)
        return self._push(op, (a.index,))

    def _not_layers(self, *xs: DiffScalar) -> None:
        """Refuse a layer node as an operand of anything but ``select`` and
        the next layer. The backward pass scales a layer node's adjoint in
        place, which is safe because those two build a fresh one for it."""
        if any(self._ops[x.index] == _JET for x in xs):
            raise RecordError("a network layer is read only through select "
                              "or the next layer")

    def _jet_node(self, x: DiffScalar) -> bool:
        return self._ops[x.index] in (_SEED, _JET)

    # public primitives beyond operator syntax -------------------------

    def stack(self, xs: Sequence[DiffScalar]) -> DiffScalar:
        """Row of k pointwise nodes, shape (k,) or (n, k) for a batch.
        Stacking the same nodes again returns the same row."""
        self._not_layers(*xs)
        return DiffScalar(self, self._node(_STACK, *(x.index for x in xs)))

    def select(self, x: DiffScalar, k: int, part: "int | None" = None) -> DiffScalar:
        """Entry `k` of a row node, or of row `part` of a jet node."""
        if (part is None) == self._jet_node(x):
            raise RecordError("select reads a row of a jet node by part, "
                              "and a row node without one")
        return self._push(_SELECT, (x.index, k, part))

    def jet_seed(self, x: DiffScalar, directions: Sequence[int] = (),
                 laplacian: bool = False) -> DiffScalar:
        """Jet of a row node x: its value, a unit first derivative along each
        entry index in `directions` and, with `laplacian`, a zero Laplacian."""
        if self._jet_node(x):
            raise RecordError("a jet is seeded from a row node")
        return self._push(_SEED, (x.index, tuple(directions), bool(laplacian)))

    def jet_affine(self, x: DiffScalar, group: str, offset: int,
                   shape: tuple[int, int], bias: "int | None" = None,
                   act: "str | None" = None,
                   laplacian: "tuple[int, ...]" = ()) -> DiffScalar:
        """``act(x W^T + b)`` over the jet node x, one node for a whole layer.
        W is the row-major (rows, cols) block of parameter group `group` at
        `offset`, b the `rows` entries at `bias` (no bias when None), and
        `act` is "sigmoid", "relu" or None (no activation). `laplacian`
        holds the positions, among the jet's first derivatives, of the
        directions its Laplacian sums; it is empty exactly when the jet
        carries no Laplacian. A jet without directions is the value alone."""
        if act not in _ACTIVATIONS:
            raise RecordError(f"unknown activation {act!r}")
        if not self._jet_node(x):
            raise RecordError("a layer maps a jet node; seed a row with jet_seed")
        return self._push(_JET, (x.index, group, offset, tuple(shape), bias, act,
                                 tuple(laplacian)))

    def mean(self, x: DiffScalar) -> DiffScalar:
        """Mean over the lockstep batch (count fixed at record time)."""
        self._not_layers(x)
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
                if (op == _JET and args[i][1] in changed
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
        if op in (_SUM, _SELECT, _SEED, _JET):
            return self._args[i][:1]
        return self._args[i]

    # -- input derivatives: forward tangents written into the record ----

    def grad(self, output: DiffScalar, wrt: Sequence[DiffScalar]) -> list[DiffScalar]:
        """Derivatives of `output` with respect to each node in `wrt`,
        written into the record so they can be differentiated again.

        Each root is an independent input: its tangent, seeded with 1, is
        pushed forward through the ancestors of `output`, and paths that
        merely produce the root's value are not followed. Tangents are
        cached per root, so later calls reuse the nodes earlier ones
        recorded, and a second derivative is the tangent of a tangent. A
        derivative equal at every point may lack the batch axis. A tangent
        cannot pass through a batch mean; record the mean of the per-point
        tangent instead. Nor can it pass through a network layer: take
        input derivatives of a network with ``nets.FieldNetwork.jet``.
        Parameter gradients come from ``backward_values``.
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
            operands = () if self._ops[i] in _NON_DIFFERENTIABLE else self._operands(i)
            missing = [a for a in operands if a >= root and a not in tangents]
            if missing:
                todo.extend(missing)
            else:
                tangents[todo.pop()] = self._tangent_rule(i, root, tangents)
        return tangents.get(output)

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
        if op == _RELU:
            return mul(node(_STEP, i), tx)
        if op == _SIGMOID:  # s(1 - s)
            return mul(node(_MUL, i, node(_SUB, self.constant(1.0).index, i)), tx)
        if op == _SIN:
            return mul(node(_COS, a[0]), tx)
        if op == _COS:
            return node(_NEG, mul(node(_SIN, a[0]), tx))
        if op == _SUM:
            raise RecordError(f"node {i} (mean): the tangent along root node {root} "
                              "cannot pass a batch mean; take the mean of the tangent")
        if op == _SELECT and a[2] is None:
            return node(_SELECT, tx, a[1], None)
        raise RecordError(f"node {i}: the tangent along root node {root} cannot pass "
                          "a network layer; take input derivatives with "
                          "FieldNetwork.jet")

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
                 if ops[i] == _JET and args[i][1] in param_groups]
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
        for all points holds it at every point. Layer nodes add their
        weight and bias adjoints straight into the gradient of the group
        they read.
        """
        grads = {g: np.zeros(len(self._groups[g])) for g in param_groups}
        ops, args, vals = self._ops, self._args, self._vals
        useful = self._memoized(("useful", tuple(param_groups)),
                                lambda: self._useful_mask(param_groups))
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
                    act = "relu" if op == _RELU else "sigmoid"
                    accumulate(a[0], a_out * _slope_value(act, vals[i]))
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
                x, k, part = a
                if useful[x]:
                    row = np.zeros(np.shape(vals[x]))
                    (row if part is None else row[part])[..., k] = a_out
                    accumulate(x, row)
            elif op == _SEED:
                if useful[a[0]]:
                    accumulate(a[0], a_out[0])
            elif op == _JET:
                # a_out becomes the adjoint of the layer's products x W^T + b,
                # G_j W^T and L W^T. It is scaled in place: only this node
                # holds it, since only selects and the next layer read a
                # layer (``_not_layers``) and each builds a fresh adjoint.
                x, group, offset, shape, bias = a[:5]
                a_out = self._jet_adjoint(i, a_out)
                w = self._weight(group, offset, shape)
                if useful[x]:
                    accumulate(x, _rows_times(a_out, w.T))
                g = grads.get(group)
                if g is not None:
                    g[offset:offset + w.size] += (a_out.reshape(-1, shape[0]).T
                                                  @ vals[x].reshape(-1, shape[1])).ravel()
                    if bias is not None:
                        g[bias:bias + shape[0]] += (a_out[0].sum(axis=0) if a_out.ndim == 3
                                                    else a_out[0])
        return grads

    def _jet_adjoint(self, i: int, adjoint: np.ndarray) -> np.ndarray:
        """Adjoint of the products x W^T + b, G_j W^T and L W^T of layer node
        i, stacked as its jet is, written over the adjoint of that jet."""
        x, group, offset, shape, bias, act, laplacian = self._args[i]
        if act is None:
            return adjoint
        y = self._vals[i][0]
        s1 = _slope_value(act, y)
        # the step's own derivative is zero, and a value alone has no
        # derivative rows for the slope's derivative to reach
        if act == "relu" or len(adjoint) == 1:
            adjoint *= s1
            return adjoint
        # s1 and s2 depend on the pre-activation too: ds1/da = s2 = s1 (1 - 2s)
        # and ds2/da = s1 (1 - 6 s1). `inner` is the adjoint they pass to
        # the pre-activation, divided by s1.
        derivs = _rows_times(self._vals[x][1:], self._weight(group, offset, shape))
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
