"""Dense-array substrate with reverse-mode differentiation.

Values are numpy arrays (float32 by default, float64 for verification runs).
Every differentiable operation returns a ``Tensor`` node holding its inputs
and a vector-Jacobian closure; the graph is rebuilt on every forward pass and
``backward`` walks it once in reverse topological order.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ContractError, ShapeError

DEFAULT_DTYPE = np.float32

_debug_checks = False


def set_debug_checks(enabled: bool) -> None:
    """Toggle NaN/Inf output checks on every forward op (slow; for tests)."""
    global _debug_checks
    _debug_checks = bool(enabled)


class Tensor:
    """A value in the computation graph.

    Leaves created with ``requires_grad=True`` are trainable parameters;
    interior nodes carry their parents and a vjp closure. ``grad`` is filled
    by ``backward``.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "parents", "_vjp", "name")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), vjp: Optional[Callable] = None,
                 name: Optional[str] = None):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.op = op
        self.parents = parents
        self._vjp = vjp
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        tag = self.name or self.op
        return f"Tensor({tag}, shape={self.data.shape}, dtype={self.data.dtype})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise TypeError("Tensor division only supports scalar divisors")
        return mul(self, 1.0 / other)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def constant(data, dtype=None) -> Tensor:
    """Wrap raw data as a non-differentiable leaf."""
    arr = np.asarray(data, dtype=dtype) if dtype is not None else np.asarray(data)
    return Tensor(arr)


def parameter(data, name: str, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True, name=name)


@contextmanager
def frozen(tensors: Iterable[Tensor]) -> Iterator[None]:
    """Treat the given leaves as constants for the duration of the block.

    Ops whose operands are all frozen or constant build no parents and no vjp
    closure, so no graph is kept for them. On exit ``requires_grad`` is set
    back on exactly the tensors this block switched off, also when the block
    raises; leaves that were already off stay off.
    """
    flipped = [t for t in tensors if t.requires_grad]
    for t in flipped:
        t.requires_grad = False
    try:
        yield
    finally:
        for t in flipped:
            t.requires_grad = True


def _node(data: np.ndarray, op: str, parents: tuple, vjp: Callable) -> Tensor:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite output produced by op '{op}'")
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=parents, vjp=vjp)
    return Tensor(data, op=op)


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _pair(a, b):
    if isinstance(a, Tensor):
        return a, _coerce(b, a)
    if isinstance(b, Tensor):
        return _coerce(a, b), b
    raise TypeError("at least one operand must be a Tensor")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _node(data, "add", (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data - b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                -_unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _node(data, "sub", (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    data = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _node(data, "mul", (a, b), vjp)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy stacking semantics (operands must be >= 2-D)."""
    a, b = _pair(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires 2-D or higher operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    data = a.data @ b.data

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
        if b.requires_grad:
            if b.data.ndim == 2:
                # a weight shared by every stacked row: one GEMM over all rows
                gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
        return ga, gb

    return _node(data, "matmul", (a, b), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    data = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _node(data, "reshape", (x,), vjp)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = x.data.transpose(axes)

    def vjp(g):
        return (g.transpose(inv),)

    return _node(data, "transpose", (x,), vjp)


def _expand_reduced(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    ax = axis if isinstance(axis, tuple) else (axis,)
    if not keepdims:
        ax = tuple(a % len(shape) for a in ax)
        g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        return (_expand_reduced(g, x.data.shape, axis, keepdims),)

    return _node(np.asarray(data), "sum", (x,), vjp)


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else int(np.prod([x.data.shape[a] for a in
                                                          (axis if isinstance(axis, tuple) else (axis,))]))

    def vjp(g):
        return (_expand_reduced(g, x.data.shape, axis, keepdims) / count,)

    return _node(np.asarray(data), "mean", (x,), vjp)


def softmax(x) -> Tensor:
    """Row softmax over the last axis, computed with max subtraction."""
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return _node(y, "softmax", (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    var = ((xd - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=xd.dtype))
    xhat = (xd - mu) * inv
    data = xhat * gain.data + bias.data

    def vjp(g):
        reduce_axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=reduce_axes)
        dbias = g.sum(axis=reduce_axes)
        gg = g * gain.data
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return _node(data, "layer_norm", (x, gain, bias), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: Tensor) -> Tensor:
    xd = x.data
    inner = _GELU_C * (xd + _GELU_A * xd * xd * xd)
    t = np.tanh(inner)
    data = 0.5 * xd * (1.0 + t)

    def vjp(g):
        d = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        return (g * d,)

    return _node(data.astype(xd.dtype, copy=False), "gelu", (x,), vjp)


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout; rate 0 is a no-op and adds no graph node."""
    if rate == 0.0:
        return x
    if not 0.0 < rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ContractError("dropout with rate > 0 requires an rng")
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype) / np.asarray(1.0 - rate, dtype=x.data.dtype)
    data = x.data * keep

    def vjp(g):
        return (g * keep,)

    return _node(data, "dropout", (x,), vjp)


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         capture: Optional[list] = None) -> Tensor:
    """softmax(q k_T / sqrt(d)) v over the trailing two axes.

    `capture`, when given, receives the attention-weight array for inspection.
    """
    if q.data.shape[-1] != k.data.shape[-1]:
        raise ShapeError(f"attention key width mismatch: {q.data.shape} vs {k.data.shape}")
    if k.data.shape[-2] != v.data.shape[-2]:
        raise ShapeError(f"attention key/value count mismatch: {k.data.shape} vs {v.data.shape}")
    d = q.data.shape[-1]
    kt = transpose(k, tuple(range(k.data.ndim - 2)) + (k.data.ndim - 1, k.data.ndim - 2))
    scores = mul(matmul(q, kt), 1.0 / math.sqrt(d))
    attn = softmax(scores)
    if capture is not None:
        capture.append(attn.data)
    return matmul(attn, v)


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def _as_grad(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    # numpy reduces a strided array in a different order than a compact one,
    # so a gradient keeps the dtype and memory layout of the value it belongs
    # to; it is copied only when the vjp returned another layout or dtype
    if g.dtype == like.dtype and g.strides == like.strides:
        return g
    out = np.empty_like(like)
    out[...] = g
    return out


def backward(loss: Tensor) -> None:
    """Reverse-mode pass from a scalar loss; fills ``grad`` on reachable leaves.

    A parent's first gradient is kept as the vjp returned it, copied only
    when its layout or dtype differs from the parent's value; later ones are
    summed into a new array, never in place, since a stored gradient may be a
    view shared with another node. Interior gradients are dropped once their
    vjp has run, so after the pass only leaves hold ``grad``.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo = _toposort(loss)
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        node.grad = None
        for parent, g in zip(node.parents, grads):
            if not parent.requires_grad or g is None:
                continue
            if parent.grad is None:
                parent.grad = _as_grad(g, parent.data)
            else:
                parent.grad = np.add(parent.grad, g, out=np.empty_like(parent.data))


def grad_table(loss: Tensor, params: dict) -> dict:
    """Run backward and collect gradients by name; unreachable params get zeros."""
    backward(loss)
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.data))
            for name, p in params.items()}


def grad_check(f: Callable[[dict], Tensor], params: dict, h: float = 1e-3,
               max_coords: int = 32, seed: int = 0) -> float:
    """Max relative error of reverse-mode gradients vs 64-bit central differences.

    `f` maps a name->Tensor dict to a scalar Tensor and must be deterministic.
    Coordinates are subsampled per tensor when a tensor has more than
    `max_coords` entries. The relative error denominator is floored at 1 so
    near-zero gradients are compared absolutely.
    """
    work = {name: Tensor(p.data.astype(np.float64), requires_grad=True, name=name)
            for name, p in params.items()}
    analytic = grad_table(f(work), work)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, p in work.items():
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords:
            idxs: Iterable[int] = range(n)
        else:
            idxs = rng.choice(n, size=max_coords, replace=False)
        aflat = analytic[name].reshape(-1)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(work).data)
            flat[i] = orig - h
            fm = float(f(work).data)
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(aflat[i])
            err = abs(a - numeric) / max(abs(a) + abs(numeric), 1.0)
            worst = max(worst, err)
    return worst
