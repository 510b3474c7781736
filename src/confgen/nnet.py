"""Minimal reverse-mode autodiff on numpy buffers, float32 or float64.

Covers exactly what the distance model needs: dense layers, with the ReLU
fused into the layer's one op (`matmul(..., relu=True)`), elementwise math,
concatenation, full-sum reduction, and row gather/scatter for message passing.
A tensor keeps a float32 array as float32 and holds anything else as float64;
an operation computes in its operands' dtype, except the full sum, which sums
in float64, and each gradient is cast to its own tensor's dtype. So a pass
whose weights and inputs are float32 runs in float32 up to its loss sums.
Every operation whose inputs require gradients records parent links and a
backward closure on its output; `backward` replays the recording once in
reverse topological order and spends it as it goes, so afterwards only leaves
(parameters) hold a gradient and recorded tensors hold no gradient, parents or
closure. Inside `inference()` nothing is recorded. The graph operations
(`matmul`, `rows`, `scatter_sum`, `concat`) take an optional leading sample
axis, so one pass runs a stack of inputs through the same weights. An Adam
optimizer, which keeps float64 master weights and updates them as one flat
array, and a JSON checkpoint container, whose one array codec is exact, round
the module off; the optimizer's array update, `adam_update`, is also the step
of `edg`'s coordinate refinement.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import threading
from pathlib import Path

import numpy as np

from .errors import DomainError


class ShapeError(DomainError):
    """Operand shapes do not satisfy an operation's contract."""


class Tensor:
    """A float32 or float64 array plus autodiff bookkeeping: a float32 array
    stays float32, anything else becomes float64.

    After `backward`, every reachable leaf with `requires_grad` (a tensor no
    operation produced, such as a parameter) holds the accumulated gradient of
    the scalar loss in `grad`; every recorded tensor has spent its tape and
    holds no gradient, parents or closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple["Tensor", ...] = ()
        self._grad_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def param(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Mode(threading.local):
    inference = False


_mode = _Mode()


@contextlib.contextmanager
def inference():
    """Run operations without recording an autodiff tape, in this thread only.

    Results hold their values but no parents or backward closures, so nothing
    keeps the intermediate buffers alive and `backward` cannot reach them.
    """
    previous = _mode.inference
    _mode.inference = True
    try:
        yield
    finally:
        _mode.inference = previous


def _result(data, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor(data)
    if not _mode.inference and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = True) -> None:
    """Add `g`, cast to `t`'s dtype, into `t.grad`. The first gradient becomes
    `t.grad` as it is when the caller computed it for `t` alone (`owned`) or
    the cast or unbroadcasting made a new array; another tensor's gradient or
    a view of one is copied."""
    if not t.requires_grad:
        return
    summed = _unbroadcast(np.asarray(g, dtype=t.data.dtype), t.data.shape)
    if t.grad is None:
        t.grad = summed if owned or summed is not g else summed.copy()
    else:
        t.grad += summed


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def grad_fn(g):
        _accumulate(a, g, owned=False)
        _accumulate(b, g, owned=False)

    return _result(a.data + b.data, (a, b), grad_fn)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def grad_fn(g):
        _accumulate(a, g, owned=False)
        _accumulate(b, -g)

    return _result(a.data - b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def grad_fn(g):
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _result(a.data * b.data, (a, b), grad_fn)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def grad_fn(g):
        _accumulate(a, g / b.data)
        _accumulate(b, -g * a.data / (b.data**2))

    return _result(a.data / b.data, (a, b), grad_fn)


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)

    def grad_fn(g):
        _accumulate(a, g * c)

    return _result(a.data * c, (a,), grad_fn)


def matmul(a, b, bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """Matrix product, plus `bias` on every row if given, then max(., 0) if
    `relu`, as one op; `a` may be a (S, rows, cols) stack of matrices.

    A stack multiplies slice by slice, so each slice gets exactly the product
    it would get alone. The ReLU gives np.where(y > 0, y, 0.0)'s bits: NaN
    and -0.0 become 0.0. It runs in place on the product, so the tape keeps
    one buffer for the layer. The backward pass masks the incoming gradient
    in place, which is safe because `backward` drops each tensor's gradient
    once its closure has run and no two tensors share a gradient buffer; it
    skips `g @ b.T` when `a` needs no gradient.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim not in (2, 3) or b.data.ndim != 2:
        raise ShapeError("matmul expects a matrix or a stack of them, then a matrix")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    if bias is not None:
        out += bias.data
    if relu:
        np.fmax(out, 0.0, out=out)  # fmax, unlike maximum, maps NaN to 0.0
        out += 0.0  # -0.0 + 0.0 is 0.0

    def grad_fn(g):
        if relu:
            g *= out > 0.0
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)
        if bias is not None:
            _accumulate(bias, g, owned=False)

    return _result(out, (a, b) if bias is None else (a, b, bias), grad_fn)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    out_data = np.exp(x.data)

    def grad_fn(g):
        _accumulate(x, g * out_data)

    return _result(out_data, (x,), grad_fn)


def square(x) -> Tensor:
    x = _as_tensor(x)

    def grad_fn(g):
        _accumulate(x, 2.0 * g * x.data)

    return _result(x.data**2, (x,), grad_fn)


def clip(x, floor: float, ceiling: float) -> Tensor:
    """Clamp to [floor, ceiling]; gradient is zero where a clamp is active."""
    x = _as_tensor(x)
    floor, ceiling = float(floor), float(ceiling)
    mask = (x.data > floor) & (x.data < ceiling)

    def grad_fn(g):
        _accumulate(x, g * mask)

    return _result(np.clip(x.data, floor, ceiling), (x,), grad_fn)


def tsum(x) -> Tensor:
    """Sum over all entries in float64, producing a float64 scalar tensor."""
    x = _as_tensor(x)

    def grad_fn(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape), owned=False)

    return _result(x.data.sum(dtype=np.float64), (x,), grad_fn)


def concat(parts, axis: int = 0) -> Tensor:
    """Join along `axis`; parts with fewer axes repeat along the leading ones.

    So a (rows, cols) part joins a (S, rows, cols2) stack as if copied S
    times; its gradient is summed over the copies. With parts of different
    rank, count `axis` from the end.
    """
    parts = [_as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat of nothing")
    lead = max((p.data.shape for p in parts), key=len)
    arrays = [p.data if p.data.ndim == len(lead) else
              np.broadcast_to(p.data, lead[:len(lead) - p.data.ndim] + p.data.shape)
              for p in parts]
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(index)], owned=False)

    return _result(np.concatenate(arrays, axis=axis), tuple(parts), grad_fn)


def _row_index(x: Tensor, index, op: str, size: int | None = None) -> np.ndarray:
    """`index` as int64 row numbers below `size` (default: the rows of `x`),
    for a matrix `x` or a stack of them."""
    if x.data.ndim not in (2, 3):
        raise ShapeError(f"{op} expects a matrix or a stack of them")
    size = x.data.shape[-2] if size is None else size
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or (index.size and not 0 <= index.min() <= index.max() < size):
        raise ShapeError(f"{op} needs a vector of row numbers in [0, {size})")
    return index


def _segment_sum(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """Rows of each matrix in `values` (..., len(index), width) summed into
    `size` rows by `index`, in `values`' dtype. One bincount over
    index * width + column adds each cell's terms in row order, starting from
    0.0, which is np.add.at's order, so float64 sums are np.add.at's bit for
    bit; float32 terms are summed in float64 and rounded once."""
    lead, width = values.shape[:-2], values.shape[-1]
    matrices, cells = math.prod(lead), size * width
    keys = ((np.arange(matrices) * cells)[:, None, None] + index[:, None] * width
            + np.arange(width))
    sums = np.bincount(keys.ravel(), weights=values.ravel(), minlength=matrices * cells)
    return sums.astype(values.dtype, copy=False).reshape(lead + (size, width))


def rows(x, index) -> Tensor:
    """Gather rows of a matrix (or of each matrix in a stack) by integer index,
    with repetition."""
    x = _as_tensor(x)
    index = _row_index(x, index, "rows")

    def grad_fn(g):
        _accumulate(x, _segment_sum(g, index, x.data.shape[-2]))

    return _result(np.take(x.data, index, axis=-2), (x,), grad_fn)


def scatter_sum(x, index, size: int) -> Tensor:
    """Sum rows of `x` into `size` buckets selected by `index` (segment sum);
    a stack sums each of its matrices."""
    x = _as_tensor(x)
    size = int(size)
    index = _row_index(x, index, "scatter_sum", size)
    if index.shape[0] != x.data.shape[-2]:
        raise ShapeError("scatter_sum index length must match the row count")

    def grad_fn(g):
        _accumulate(x, np.take(g, index, axis=-2))

    return _result(_segment_sum(x.data, index, size), (x,), grad_fn)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into `grad` for every reachable leaf. Each
    recorded tensor drops its gradient, parents and closure as soon as its
    closure has run, so intermediate buffers are freed during the pass."""
    if loss.data.shape != ():
        raise ShapeError("backward needs a scalar loss")
    order: list[Tensor] = []
    visited = {id(loss)}
    stack = [(loss, iter(loss._parents))]
    while stack:
        node, parents = stack[-1]
        nxt = next(parents, None)
        if nxt is None:
            order.append(node)
            stack.pop()
        elif id(nxt) not in visited:
            visited.add(id(nxt))
            stack.append((nxt, iter(nxt._parents)))
    loss.grad = np.asarray(1.0)
    while order:
        node = order.pop()
        if node._grad_fn is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._grad_fn(node.grad)
        node.grad, node._parents, node._grad_fn = None, (), None


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


class Dense:
    """Affine layer, optionally followed by a ReLU, as one `matmul` op, with
    He-style uniform fan-in initialization.

    `gain` scales the init limit; small gains keep a network's initial
    outputs near zero.
    """

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator,
                 gain: float = 1.0):
        limit = gain * math.sqrt(6.0 / fan_in)
        self.weight = param(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        self.bias = param(np.zeros(fan_out))

    def __call__(self, x: Tensor, relu: bool = False) -> Tensor:
        return matmul(x, self.weight, self.bias, relu=relu)


class Mlp:
    """Dense stack with ReLU between layers and a linear output layer: one
    op, and so one taped buffer, per layer."""

    def __init__(self, sizes, rng: np.random.Generator, out_gain: float = 1.0):
        if len(sizes) < 2:
            raise ShapeError("an MLP needs at least input and output sizes")
        self.layers = [Dense(a, b, rng) for a, b in zip(sizes[:-2], sizes[1:-1])]
        self.layers.append(Dense(sizes[-2], sizes[-1], rng, gain=out_gain))

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x, relu=True)
        return self.layers[-1](x)


# Adam's moment decay rates and denominator offset, as common practice sets them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(x: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                t: int, lr: float) -> None:
    """Adam step number `t` (from 1) with gradient `g`, in place: the moments
    `m` and `v` and then `x` move, with bias correction. Two scratch arrays
    carry the terms of x -= lr * (m / c1) / (sqrt(v / c2) + eps), computed in
    that order."""
    # out= keeps a 0-d product an array, which the later out= calls need
    scratch = np.multiply(g, 1.0 - ADAM_BETA1, out=np.empty(np.shape(m)))
    m *= ADAM_BETA1
    m += scratch
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= g
    v *= ADAM_BETA2
    v += scratch
    np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    step = np.divide(m, 1.0 - ADAM_BETA1**t)
    step *= lr
    step /= scratch
    x -= step


class Adam:
    """Adam over a list of parameter tensors, from each parameter's `grad` (a
    zero gradient where that is None).

    The optimizer holds float64 master weights, taken from the parameters
    when it is made: a step is one `adam_update` of the masters, from the
    gradients upcast to float64 and laid end to end, and then writes the
    masters into the parameters' own arrays, rounded to their dtype. So
    float32 parameters train against float64 masters, and float64 ones keep
    every bit of the update. The masters and the moments live in three flat
    arrays; `masters`, `m` and `v` are lists of per-parameter views of them.
    A step overwrites parameter values set since the last one, so set them
    before making the optimizer.
    """

    def __init__(self, params, lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        # the trailing empty array lets concatenate take an empty parameter list
        self._x = np.concatenate([p.data.ravel() for p in self.params] + [np.zeros(0)],
                                 dtype=np.float64)
        self._m, self._v = np.zeros(self._x.size), np.zeros(self._x.size)
        ends = np.cumsum([0] + [p.data.size for p in self.params])
        self.masters, self.m, self.v = (
            [flat[lo:hi].reshape(p.data.shape)
             for p, lo, hi in zip(self.params, ends[:-1], ends[1:])]
            for flat in (self._x, self._m, self._v))

    def step(self) -> float:
        """One update; returns the L2 norm of the gradient it applied, summed
        elementwise in float64, so it does not depend on the BLAS thread
        count."""
        self.t += 1
        g = np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                            for p in self.params] + [np.zeros(0)], dtype=np.float64)
        adam_update(self._x, g, self._m, self._v, self.t, self.lr)
        for p, x in zip(self.params, self.masters):
            p.data[...] = x
        return float(np.sqrt(np.sum(g * g)))

    def state_dict(self) -> dict:
        return {
            "t": self.t,
            "m": [m.copy() for m in self.m],
            "v": [v.copy() for v in self.v],
        }

    def load_state_dict(self, state: dict) -> None:
        shapes = [p.data.shape for p in self.params]
        if [np.shape(m) for m in state["m"]] != shapes or \
                [np.shape(v) for v in state["v"]] != shapes:
            raise ShapeError(f"optimizer moments do not match the {len(shapes)} parameters")
        self.t = int(state["t"])
        for views, stored in ((self.m, state["m"]), (self.v, state["v"])):
            for view, a in zip(views, stored):
                view[...] = np.asarray(a, dtype=np.float64)


CHECKPOINT_FORMAT = "confgen-params"
CHECKPOINT_VERSION = 2


def encode_arrays(arrays: dict) -> dict:
    """Named arrays as JSON-ready {name: {shape, data}} entries, where `data`
    is the base64 of the array's little-endian float64 bytes, so decode_arrays
    reproduces every value bit for bit."""
    return {name: {"shape": list(np.shape(a)),
                   "data": base64.b64encode(np.ascontiguousarray(a, dtype="<f8")).decode()}
            for name, a in arrays.items()}


def decode_arrays(doc: dict) -> dict:
    """Inverse of encode_arrays; ValueError names an entry that is not an
    array."""
    arrays = {}
    for name, entry in dict(doc).items():
        try:
            a = np.frombuffer(base64.b64decode(entry["data"], validate=True), dtype="<f8")
            arrays[name] = a.astype(np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as e:  # binascii.Error is a ValueError
            detail = f"no {e}" if isinstance(e, KeyError) else e
            raise ValueError(f"array {name!r}: {detail}") from e
    return arrays


def save_checkpoint(path, arrays: dict, extra: dict | None = None) -> None:
    """Write named parameter arrays (plus free-form metadata) as JSON."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "params": encode_arrays(arrays),
        "extra": extra or {},
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_checkpoint(path) -> tuple[dict, dict]:
    """(arrays, extra) of a version 2 checkpoint; ValueError if the file is
    not one."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    return decode_arrays(doc["params"]), doc.get("extra", {})
