"""Dense-array substrate with reverse-mode differentiation.

Values are numpy arrays (float32 by default, float64 for verification runs).
Every differentiable operation returns a ``Tensor`` node holding its inputs
and a vector-Jacobian closure; the graph is rebuilt on every forward pass and
``backward`` walks it once in reverse topological order, consuming it: each
node gives up its closure and its parent links as soon as its vjp has run, so
the arrays the forward saved are freed during the pass.
"""

from __future__ import annotations

import math
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

    __slots__ = ("data", "requires_grad", "grad", "op", "parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, op: str = "leaf",
                 parents: tuple = (), vjp: Optional[Callable] = None):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.op = op
        self.parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor({self.op}, shape={self.data.shape}, dtype={self.data.dtype})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)


def constant(data, dtype=None) -> Tensor:
    """Wrap raw data as a non-differentiable leaf."""
    arr = np.asarray(data, dtype=dtype) if dtype is not None else np.asarray(data)
    return Tensor(arr)


def parameter(data, dtype=DEFAULT_DTYPE) -> Tensor:
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def constants(params: dict[str, Tensor]) -> dict[str, Tensor]:
    """A constant Tensor over each parameter's array, by name: the view a
    pass reads to hold the parameters off the graph. Ops whose operands are
    all constants build no parents and no vjp closure."""
    return {name: Tensor(p.data) for name, p in params.items()}


def _node(data: np.ndarray, op: str, parents: tuple, vjp: Callable) -> Tensor:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite output produced by op '{op}'")
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, op=op, parents=parents, vjp=vjp)
    return Tensor(data, op=op)


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """A binary op's operands; a second that is not a Tensor becomes a constant."""
    if not isinstance(a, Tensor):
        raise TypeError(f"the first operand must be a Tensor, got {type(a).__name__}")
    return a, b if isinstance(b, Tensor) else Tensor(np.asarray(b, dtype=a.data.dtype))


def _col_sum(a: np.ndarray, axes: Iterable[int]) -> np.ndarray:
    """The sums of `a` over `axes`, keeping its other axes in order.

    The one sum over leading axes: of a gradient over the axes its operand
    was broadcast along (bias, gain and embedding gradients, summed over
    every token row), and of the evaluation's errors over the windows.
    numpy's `sum` over leading axes takes 1.5-2.2 times as long at the desk
    and paper token shapes; einsum adds the rows of a compact array in the
    same order, so the bits are those of `sum`."""
    axes = set(axes)
    return np.einsum(a, list(range(a.ndim)), [i for i in range(a.ndim) if i not in axes])


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to `shape` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = _col_sum(g, range(extra))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = _col_sum(g, axes).reshape(shape)
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


def _product(a: Tensor, b: Tensor) -> np.ndarray:
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rows times a 2-D weight, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}")
    return a.data @ b.data


def _product_grads(a: Tensor, b: Tensor, g: np.ndarray) -> tuple:
    ga = gb = None
    if a.requires_grad:
        # numpy's stacked product is 2-3x slower on a transposed (F-ordered)
        # weight than on a compact copy of it
        ga = g @ np.ascontiguousarray(b.data.T)
    if b.requires_grad:
        # a weight shared by every stacked row: one GEMM over all rows
        gb = a.data.reshape(-1, a.data.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    return ga, gb


def matmul(a, b) -> Tensor:
    """A stack of rows (..., K) times a 2-D (K, N) weight."""
    a, b = _pair(a, b)
    return _node(_product(a, b), "matmul", (a, b), lambda g: _product_grads(a, b, g))


def linear(x, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b`` as one node, with the values and gradients of `matmul`
    followed by `add`. The bias is added in place into the product, so the
    graph keeps no separate pre-bias array; it must broadcast to the
    product's shape."""
    x, w = _pair(x, w)
    data = _product(x, w)
    try:
        data += b.data
    except ValueError:
        raise ShapeError(f"linear bias {b.data.shape} does not broadcast to {data.shape}") from None

    def vjp(g):
        return (*_product_grads(x, w, g), _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _node(data, "linear", (x, w, b), vjp)


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


def _rows(index) -> np.ndarray:
    """An (..., K) token index as an (..., K, 1) array. A repeated row would
    need its gradients summed, so each index row must increase."""
    index = np.asarray(index)
    if np.any(index[..., 1:] <= index[..., :-1]):
        raise ContractError("token indices must increase along each row")
    return index[..., None]


def take(x: Tensor, index) -> Tensor:
    """The (..., K, D) token rows `index` of (..., S, D) tokens. The vjp
    writes the gradient rows back to their places among zero rows."""
    rows = _rows(index)

    def vjp(g):
        out = np.zeros(x.data.shape, g.dtype)
        np.put_along_axis(out, rows, g, axis=-2)
        return (out,)

    return _node(np.take_along_axis(x.data, rows, axis=-2), "take", (x,), vjp)


def sum_(x: Tensor) -> Tensor:
    """The sum of all elements, as a scalar."""
    data = np.asarray(x.data.sum())

    def vjp(g):
        return (np.broadcast_to(g, x.data.shape),)

    return _node(data, "sum", (x,), vjp)


def mean(x: Tensor) -> Tensor:
    """The mean of all elements, as a scalar."""
    data = np.asarray(x.data.mean())

    def vjp(g):
        return (np.broadcast_to(g, x.data.shape) / x.data.size,)

    return _node(data, "mean", (x,), vjp)


def _row_sum(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """The sums over the last axis of `a`, or of `a * b` (`b` broadcast to
    `a`), as a (..., 1) column.

    The one row reduction of `softmax` and `layer_norm`. numpy's `sum` and
    `mean` are several times slower over rows of 5-64 values. A BLAS row sum
    (`a @ ones`) sums a row in an order that depends on where the row sits
    in the stack, so a chunk of windows would not give the bits of the whole
    batch; einsum sums every row alike."""
    s = np.einsum("...j->...", a) if b is None else np.einsum("...j,...j->...", a, b)
    return s[..., None]


# within +-_EXP_SAFE, float32 and float64 exp neither overflows nor leaves
# the normal range (float32 exp(60) ~ 1e26, exp(-60) ~ 9e-27)
_EXP_SAFE = 60.0


def softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, into a new array.

    When every input lies within +-_EXP_SAFE the rows are exponentiated as
    they are; otherwise (also for NaN, and always for float16) each row's
    max is subtracted first. The two whole-array bounds cost less than the
    row max over short rows. The attention node, its one caller, carries
    the vjp."""
    if (x.size and x.dtype.itemsize >= 4
            and -_EXP_SAFE <= x.min() and x.max() <= _EXP_SAFE):
        y = np.exp(x)
    else:
        y = x - x.max(axis=-1, keepdims=True)
        np.exp(y, out=y)
    y /= _row_sum(y)
    return y


_LN_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    xd = x.data
    d = xd.shape[-1]
    xhat = xd - _row_sum(xd) / d
    var = _row_sum(xhat, xhat) / d
    inv = 1.0 / np.sqrt(var + np.asarray(_LN_EPS, dtype=xd.dtype))
    xhat *= inv
    data = xhat * gain.data
    data += bias.data

    def vjp(g):
        lead = range(g.ndim - 1)
        tmp = g * xhat
        dgain = _col_sum(tmp, lead)
        dbias = _col_sum(g, lead)
        # the row means of g*gain*xhat and g*gain, as dot products with gain/D
        w = gain.data / d
        proj = _row_sum(tmp, w)
        dx = g * gain.data
        dx -= _row_sum(g, w)
        dx -= np.multiply(xhat, proj, out=tmp)
        dx *= inv
        return dx, dgain, dbias

    return _node(data, "layer_norm", (x, gain, bias), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
# gelu's elementwise chains run over blocks of this many values (256 KB of
# float32), so each of their passes reads a block that is still in cache
_BLOCK = 1 << 16


def _blocks(n: int) -> Iterator[slice]:
    return (slice(i, i + _BLOCK) for i in range(0, n, _BLOCK))


def gelu(x: Tensor) -> Tensor:
    """Tanh-form GELU (Hendrycks & Gimpel, arXiv 1606.08415).

    Forward and vjp run block by block over the flattened values; each value
    sees the same operations in the same order as a whole-array pass."""
    xf = np.ascontiguousarray(x.data).reshape(-1)
    t = np.empty_like(xf)                   # tanh(C (x + A x^3)), kept for the vjp
    data = np.empty_like(xf)
    for s in _blocks(xf.size):
        xb, tb, out = xf[s], t[s], data[s]
        np.multiply(xb, _GELU_A, out=tb)
        tb *= xb
        tb *= xb
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        np.add(tb, 1.0, out=out)            # 0.5 x (1 + t)
        out *= xb
        out *= 0.5

    def vjp(g):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) C (1 + 3 A x^2), times g
        gf = np.ascontiguousarray(g).reshape(-1)
        dx = np.empty_like(xf)
        width = min(xf.size, _BLOCK)
        poly, tmp = np.empty(width, xf.dtype), np.empty(width, xf.dtype)
        for s in _blocks(xf.size):
            xb, tb, db = xf[s], t[s], dx[s]
            pb, mb = poly[:xb.size], tmp[:xb.size]
            np.multiply(xb, 3.0 * _GELU_A, out=pb)
            pb *= xb
            pb += 1.0
            np.multiply(tb, tb, out=mb)
            np.subtract(1.0, mb, out=mb)
            np.multiply(xb, 0.5, out=db)
            db *= mb
            db *= _GELU_C
            db *= pb
            np.add(tb, 1.0, out=mb)
            mb *= 0.5
            db += mb
            db *= gf[s]
        return (dx.reshape(x.data.shape),)

    return _node(data.reshape(x.data.shape), "gelu", (x,), vjp)


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


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """(..., S, D) as an (..., H, S, D/H) view."""
    *lead, s, d = x.shape
    return x.reshape(*lead, s, heads, d // heads).swapaxes(-3, -2)


def _check_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, heads: int) -> None:
    if min(q.ndim, k.ndim, v.ndim) < 2:
        raise ShapeError(f"attention operands must be at least 2-D, got {q.shape}, {k.shape}, {v.shape}")
    if not q.shape[-1] == k.shape[-1] == v.shape[-1]:
        raise ShapeError(f"attention q, k and v widths disagree: {q.shape}, {k.shape}, {v.shape}")
    if heads < 1 or q.shape[-1] % heads:
        raise ShapeError(f"attention width {q.shape[-1]} is not divisible by {heads} heads")
    if k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"attention key/value count mismatch: {k.shape} vs {v.shape}")
    if k.ndim < q.ndim and k.ndim != 3:
        raise ShapeError(f"a context with fewer axes than the queries {q.shape} must be "
                         f"(batch, tokens, width), got {k.shape}")
    if k.ndim > q.ndim or q.shape[:k.ndim - 2] != k.shape[:-2]:
        raise ShapeError(f"attention context {k.shape} does not match the queries' "
                         f"batch axes {q.shape}")


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, heads: int = 1,
                         capture: Optional[list] = None) -> Tensor:
    """Multi-head softmax(q k_T / sqrt(dh)) v as one node.

    q is (..., Sq, D) and k, v are (..., Sk, D) tokens; each of the `heads`
    heads attends over its own D/heads columns, split and merged as views.
    A (B, Sk, D) context under (B, ..., Sq, D) queries is shared by all the
    queries of a batch item: their axes after the batch axis join the token
    axis, since every query is its own softmax row. The output and the q, k
    and v gradients are written into compact (..., S, D) arrays. `capture`,
    when given, receives the (..., H, Sq, Sk) attention weights.
    """
    qd, kd, vd = q.data, k.data, v.data
    _check_attention(qd, kd, vd, heads)
    flat = (*kd.shape[:-2], -1, qd.shape[-1])
    # scaling q costs one pass over nq*d values instead of nq*nk scores; the
    # vjp scales q again where dk needs it, so the graph keeps no scaled copy
    scale = np.asarray(1.0 / math.sqrt(qd.shape[-1] // heads), dtype=qd.dtype)
    qs = qd.reshape(flat) * scale
    kh, vh = _heads(kd, heads), _heads(vd, heads)
    # the module binding, so that a wrapped softmax sees every call; the
    # transposed key heads are copied compact (the product rule)
    attn = softmax(np.matmul(_heads(qs, heads), np.ascontiguousarray(kh.swapaxes(-1, -2))))
    if capture is not None:
        # a shared context's (B, H, M*Sq, Sk) weights are shown as (B, M, H, Sq, Sk)
        lead = attn.shape[:-3]
        per_query = attn.reshape(*lead, heads, *qd.shape[len(lead):-1], attn.shape[-1])
        capture.append(np.moveaxis(per_query, len(lead), -3))
    out = np.empty_like(qs)
    np.matmul(attn, vh, out=_heads(out, heads))

    def vjp(g):
        g = g.reshape(flat)
        gh = _heads(g, heads)
        # dS = (dP - rowsum(dP * P)) * P with rowsum(dP * P) = dO . O per
        # head (Dao et al., arXiv 2205.14135): a sum over dh values, not Sk
        split = (*out.shape[:-1], heads, -1)
        dot = np.einsum("...shd,...shd->...hs", g.reshape(split), out.reshape(split))
        # compact transposed value heads, as for the keys; the transposes of
        # dS and of the weights below stay views, whose copies cost more
        ds = np.matmul(gh, np.ascontiguousarray(vh.swapaxes(-1, -2)))
        ds -= dot[..., None]
        ds *= attn
        dq = dk = dv = None
        if q.requires_grad:
            dq = np.empty_like(out)
            np.matmul(ds, kh, out=_heads(dq, heads))
            dq *= scale
            dq = dq.reshape(qd.shape)
        if k.requires_grad:
            dk = np.empty(kd.shape, out.dtype)
            qh = _heads(qd.reshape(flat) * scale, heads)
            np.matmul(ds.swapaxes(-1, -2), qh, out=_heads(dk, heads))
        if v.requires_grad:
            dv = np.empty(vd.shape, out.dtype)
            np.matmul(attn.swapaxes(-1, -2), gh, out=_heads(dv, heads))
        return dq, dk, dv

    return _node(out.reshape(qd.shape), "attention", (q, k, v), vjp)


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
        if node.requires_grad and node._vjp is None and node.op != "leaf":
            raise ContractError(f"backward through a consumed '{node.op}' node; run the forward again")
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

    The pass consumes the graph: it pops the nodes off their topological
    order, and each interior node gives up its vjp closure, its parent links
    and its gradient as soon as its vjp has run, so the arrays the forward
    saved are freed during the pass. After it only leaves hold ``grad``, and
    a second pass through a consumed node raises `ContractError` rather than
    return the first pass's gradients. A parent's first gradient is kept as
    the vjp returned it, copied only when its layout or dtype differs from
    the parent's value; later ones are summed into a new array, never in
    place, since a stored gradient may be a view shared with another node.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo = _toposort(loss)
    for node in topo:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        vjp, g, parents = node._vjp, node.grad, node.parents
        if vjp is None:
            continue                    # a leaf keeps its gradient
        node._vjp, node.parents, node.grad = None, (), None
        if g is None:
            continue
        # `g` is rebound before the next vjp runs, so no stale gradient
        # outlives its node
        for parent, g in zip(parents, vjp(g)):
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
