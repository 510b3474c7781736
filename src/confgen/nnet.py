"""Minimal reverse-mode autodiff on float64 numpy buffers.

Covers exactly what the distance model needs: dense layers with ReLU,
elementwise math, concatenation, full-sum reduction, and row gather/scatter
for message passing. Every operation whose inputs require gradients records
parent links and a backward closure on its output; `backward` replays the
recording once in reverse topological order and spends it as it goes, so
afterwards only leaves (parameters) hold a gradient and recorded tensors hold
no gradient, parents or closure. Inside `inference()` nothing is recorded. The graph operations (`matmul`, `rows`, `scatter_sum`, `concat`)
take an optional leading sample axis, so one pass runs a stack of inputs
through the same weights. An Adam optimizer and a JSON checkpoint container,
whose one array codec is exact, round the module off; the optimizer's array
update, `adam_update`, is also the step of `edg`'s coordinate refinement.
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
    """A float64 array plus autodiff bookkeeping.

    After `backward`, every reachable leaf with `requires_grad` (a tensor no
    operation produced, such as a parameter) holds the accumulated gradient of
    the scalar loss in `grad`; every recorded tensor has spent its tape and
    holds no gradient, parents or closure.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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
    """Add `g` into `t.grad`. The first gradient becomes `t.grad` as it is when
    the caller computed it for `t` alone (`owned`) or unbroadcasting summed it
    into a new array; another tensor's gradient or a view of one is copied."""
    if not t.requires_grad:
        return
    g = np.asarray(g, dtype=np.float64)
    summed = _unbroadcast(g, t.data.shape)
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


def matmul(a, b, bias: Tensor | None = None) -> Tensor:
    """Matrix product, plus `bias` on every row if given, as one op; `a` may
    be a (S, rows, cols) stack of matrices.

    A stack multiplies slice by slice, so each slice gets exactly the product
    it would get alone. The backward pass skips `g @ b.T` when `a` needs no
    gradient.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim not in (2, 3) or b.data.ndim != 2:
        raise ShapeError("matmul expects a matrix or a stack of them, then a matrix")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data
    if bias is not None:
        out += bias.data

    def grad_fn(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)
        if bias is not None:
            _accumulate(bias, g, owned=False)

    return _result(out, (a, b) if bias is None else (a, b, bias), grad_fn)


def relu(x) -> Tensor:
    """max(x, 0) with np.where(x > 0, x, 0.0)'s bits: NaN and -0.0 give 0.0."""
    x = _as_tensor(x)
    out = np.fmax(x.data, 0.0)  # fmax, unlike maximum, maps NaN to 0.0
    out += 0.0  # -0.0 + 0.0 is 0.0

    def grad_fn(g):
        _accumulate(x, g * (out > 0.0))

    return _result(out, (x,), grad_fn)


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


def clip(x, floor: float, ceiling: float = math.inf) -> Tensor:
    """Clamp to [floor, ceiling]; gradient is zero where a clamp is active."""
    x = _as_tensor(x)
    floor, ceiling = float(floor), float(ceiling)
    mask = (x.data > floor) & (x.data < ceiling)

    def grad_fn(g):
        _accumulate(x, g * mask)

    return _result(np.clip(x.data, floor, ceiling), (x,), grad_fn)


def tsum(x) -> Tensor:
    """Sum over all entries, producing a scalar tensor."""
    x = _as_tensor(x)

    def grad_fn(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape), owned=False)

    return _result(x.data.sum(), (x,), grad_fn)


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
    `size` rows by `index`. One bincount over index * width + column adds each
    cell's terms in row order, starting from 0.0, which is np.add.at's order,
    so the sums are np.add.at's bit for bit."""
    lead, width = values.shape[:-2], values.shape[-1]
    matrices, cells = math.prod(lead), size * width
    keys = ((np.arange(matrices) * cells)[:, None, None] + index[:, None] * width
            + np.arange(width))
    sums = np.bincount(keys.ravel(), weights=values.ravel(), minlength=matrices * cells)
    return sums.reshape(lead + (size, width))


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
    """Affine layer, one `matmul` op, with He-style uniform fan-in
    initialization.

    `gain` scales the init limit; small gains keep a network's initial
    outputs near zero.
    """

    def __init__(self, fan_in: int, fan_out: int, rng: np.random.Generator,
                 gain: float = 1.0):
        limit = gain * math.sqrt(6.0 / fan_in)
        self.weight = param(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        self.bias = param(np.zeros(fan_out))

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight, self.bias)

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]


class Mlp:
    """Dense stack with ReLU between layers and a linear output layer."""

    def __init__(self, sizes, rng: np.random.Generator, out_gain: float = 1.0):
        if len(sizes) < 2:
            raise ShapeError("an MLP needs at least input and output sizes")
        self.layers = [Dense(a, b, rng) for a, b in zip(sizes[:-2], sizes[1:-1])]
        self.layers.append(Dense(sizes[-2], sizes[-1], rng, gain=out_gain))

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = relu(layer(x))
        return self.layers[-1](x)

    def parameters(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.parameters()]


# Adam's moment decay rates and denominator offset, as common practice sets them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(x: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                t: int, lr: float) -> None:
    """Adam step number `t` (from 1) with gradient `g`, in place: the moments
    `m` and `v` and then `x` move, with bias correction."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    x -= lr * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)


class Adam:
    """Adam over a list of parameter tensors, one `adam_update` each per step."""

    def __init__(self, params, lr: float = 0.001):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads=None) -> None:
        if grads is None:
            grads = [
                p.grad if p.grad is not None else np.zeros_like(p.data)
                for p in self.params
            ]
        if len(grads) != len(self.params):
            raise ShapeError("one gradient per parameter required")
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.data.shape:
                raise ShapeError("gradient shape does not match its parameter")
            adam_update(p.data, g, m, v, self.t, self.lr)

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
        self.m = [np.array(m, dtype=np.float64) for m in state["m"]]
        self.v = [np.array(v, dtype=np.float64) for v in state["v"]]


CHECKPOINT_FORMAT = "confgen-params"
CHECKPOINT_VERSION = 2  # version 1 stored array data as JSON number lists


def encode_arrays(arrays: dict) -> dict:
    """Named arrays as JSON-ready {name: {shape, data}} entries, where `data`
    is the base64 of the array's little-endian float64 bytes, so decode_arrays
    reproduces every value bit for bit."""
    return {name: {"shape": list(np.shape(a)),
                   "data": base64.b64encode(np.ascontiguousarray(a, dtype="<f8")).decode()}
            for name, a in arrays.items()}


def decode_arrays(doc: dict) -> dict:
    """Inverse of encode_arrays; it also reads version 1 entries, whose data is
    a list of numbers. ValueError names an entry that is not an array."""
    arrays = {}
    for name, entry in dict(doc).items():
        try:
            data = entry["data"]
            a = (np.frombuffer(base64.b64decode(data, validate=True), dtype="<f8")
                 if isinstance(data, str) else np.asarray(data, dtype=np.float64))
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


def load_checkpoint(path) -> tuple[dict, dict, int]:
    """(arrays, extra, version) of a version 1 or 2 checkpoint; ValueError if
    the file is not one."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    return decode_arrays(doc["params"]), doc.get("extra", {}), doc["version"]
