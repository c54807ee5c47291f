"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything downstream (the transformer, the guidance losses, the training
loop) is built from the operations here. All arrays are row-major float64;
gradients are exact analytic expressions and are certified against the
central-difference oracle `finite_diff_grad` in the test suite.

Three fused nodes carry most of the work:

- `linear(x, W, b)` is a projection `x @ W + b`; its backward forms the
  weight gradient as one 2-D product over every row of the batch.
- `attention_map(q, k, ...)` scales, masks and row-softmaxes the scores in
  one node, with the analytic softmax backward (as in FlashAttention, Dao et
  al. 2022) instead of a chain of matmul, add and softmax nodes.
- `cross_entropy(logits, ids, mask)` is a row log-sum-exp over logits and
  integer target ids (softmax-minus-target backward), so no probability is
  ever clamped before a log.

`Tensor.__sub__`, `Tensor.__getitem__` (whose backward scatters with
`np.add.at`, so a repeated index accumulates) and `Tensor.sum` (of every
element) serve the test suite alone, which builds its gradient-check losses
and reference paths from them; no model, loss or training code calls them.

An op records a tape node exactly when one of its inputs requires a
gradient, and a `Parameter` requires one only inside `recording(params)`. A
training step builds its loss and runs its backward sweep in that block over
the parameters it updates; everywhere else (inference, validation, the
parameters a step leaves alone) nothing records and no activation is kept.
A parameter carries no frozen flag: which ones train is the caller's choice
of `params` (in `training`, a frozen model's backbone is refused up front).

A graph lives for one backward sweep. Recording holds every activation a
node's backward needs; `Tensor.backward` frees each interior node as soon as
it has pushed its gradient on, so after the sweep only the leaves, with their
gradients, and whatever the caller still references remain. A graph is
differentiated once: a second sweep over it raises NumericError, and so does
a sweep from a loss that recorded no node.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy.special import erf

from .errors import NumericError

Array = np.ndarray

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    """A float64 array plus the tape bookkeeping for reverse-mode autodiff.

    Tensors are immutable once created (ops return new tensors); `grad` is
    populated by `backward()` on the loss node. `_parents` is () on a leaf and
    None on an interior node that a backward sweep has consumed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), grad_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._grad_fn = grad_fn

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def grad_fn(g):
            return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.data.shape) if b.requires_grad else None)

        return _node(a.data + b.data, (a, b), grad_fn)

    def __sub__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def grad_fn(g):
            return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

        return _node(a.data - b.data, (a, b), grad_fn)

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def grad_fn(g):
            return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                    _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

        return _node(a.data * b.data, (a, b), grad_fn)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self, other

        def grad_fn(g):
            ga = gb = None
            if a.requires_grad:
                ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
            return (ga, gb)

        return _node(a.data @ b.data, (a, b), grad_fn)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return _node(self.data.reshape(shape), (self,),
                     lambda g: (g.reshape(old),))

    def transpose(self, *axes):
        inv = np.argsort(axes)
        return _node(self.data.transpose(axes), (self,),
                     lambda g: (g.transpose(inv),))

    def __getitem__(self, idx):
        shape = self.data.shape

        def grad_fn(g):
            out = np.zeros(shape)
            np.add.at(out, idx, g)
            return (out,)

        return _node(self.data[idx], (self,), grad_fn)

    # -- reductions and elementwise ------------------------------------------

    def sum(self):
        shape = self.data.shape
        return _node(self.data.sum(), (self,),
                     lambda g: (np.broadcast_to(g, shape).copy(),))

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar node; fills `grad` on the leaves.

        The sweep consumes the graph. Once an interior node (one with a
        `grad_fn`) has pushed its gradient to its parents, its `grad`,
        `_grad_fn` and `_parents` are cleared and the sweep lets go of it, so
        its activations and closure are freed while the sweep runs on. Leaves,
        `Parameter`s among them, keep their `grad`. A later sweep that reaches
        a consumed node raises NumericError instead of returning zeros, and
        so does a sweep from a loss that recorded no node.
        """
        if self.data.size != 1:
            raise NumericError("backward requires a scalar loss node")
        if not self.requires_grad:
            raise NumericError("the loss recorded no node: build it inside recording")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._grad_fn is None:
                continue
            grads = node._grad_fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g
            node.grad = node._grad_fn = node._parents = None


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative post-order over nodes that require grad; deterministic.
    Raises NumericError on reaching a node that a sweep has consumed."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        if node._parents is None:
            raise NumericError("backward over a graph that an earlier backward consumed")
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _node(data: Array, parents: tuple, grad_fn) -> Tensor:
    """Create an op node, which records only when a parent requires a
    gradient. A plain loop: a generator `any()` costs ten times as much per
    node, which shows in a decode that creates thousands of nodes."""
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, parents=parents, grad_fn=grad_fn)
    return Tensor(data)


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


class Parameter(Tensor):
    """Named leaf tensor. It requires a gradient only inside `recording`;
    whether it trains is up to whoever records it and steps it."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(data)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


# Gradients keyed by parameter name; values match parameter shapes.
GradientStore = dict[str, Array]


@contextmanager
def recording(params: Iterable[Parameter]):
    """Within the block, ops on exactly `params` record tape nodes; on exit,
    also by an exception, those parameters stop requiring a gradient. Blocks
    do not nest over a shared parameter: the inner exit clears it."""
    params = list(params)
    for p in params:
        p.requires_grad = True
    try:
        yield
    finally:
        for p in params:
            p.requires_grad = False


def backward(loss: Tensor, params: Iterable[Parameter]) -> GradientStore:
    """Gradients of a scalar loss for every parameter in `params`.

    Parameters not on the loss path get an all-zero entry, which keeps the
    optimizer loop uniform. The sweep consumes the loss's graph (see
    `Tensor.backward`).
    """
    params = list(params)
    for p in params:
        p.grad = None
    loss.backward()
    store: GradientStore = {}
    for p in params:
        store[p.name] = p.grad if p.grad is not None else np.zeros_like(p.data)
    return store


# ---------------------------------------------------------------------------
# Named operations
# ---------------------------------------------------------------------------

def linear(x, w, b) -> Tensor:
    """Projection x @ w + b of (..., n_in) rows by an (n_in, n_out) weight
    and an (n_out,) bias, as one node.

    The forward pass is one 2-D GEMM over all leading rows, the bias added
    in place. A stacked product would run a decode step's one row per
    sequence as one GEMV call per sequence, 2-3x slower per projection; a
    GEMM row's result does not depend on how many rows share the call once
    there are at least 2, so with 2 or more rows this equals it bit for bit.

    The backward pass forms g @ w^T only when `x` records a gradient and the
    weight gradient as one 2-D product x^T g over all rows of the batch. The
    bias gradient sums g over its leading axes one at a time, the order the
    unfused add node used: the key projections' bias gradients are zero up
    to rounding (softmax ignores a shift shared by all keys), and this order
    keeps that rounding noise as it was.
    """
    x = as_tensor(x)
    w = as_tensor(w)
    b = as_tensor(b)
    n_in, n_out = w.data.shape
    out_data = (x.data.reshape(-1, n_in) @ w.data).reshape(*x.data.shape[:-1], n_out)
    out_data += b.data

    def grad_fn(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = g @ w.data.T
        if w.requires_grad:
            gw = x.data.reshape(-1, n_in).T @ g.reshape(-1, n_out)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
        return (gx, gw, gb)

    return _node(out_data, (x, w, b), grad_fn)


def gelu(t: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form."""
    t = as_tensor(t)
    x = t.data
    cdf = x * _INV_SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out_data = x * cdf

    def grad_fn(g):
        # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi)
        d = -0.5 * x
        d *= x
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x
        d += cdf
        d *= g
        return (d,)

    return _node(out_data, (t,), grad_fn)


def cross_entropy(logits, target_ids, row_mask=None) -> Tensor:
    """Summed cross-entropy -log softmax(logits)[target] over the rows of
    `logits` (..., M), with one integer target id in [0, M) per row.

    One tape node. The forward pass is a row log-sum-exp, so every finite
    row gives a finite loss without clamping; the backward pass is the row
    softmax minus 1 at the target column, times mask * g. `row_mask` (the
    shape of `target_ids`) weights rows; a 0 excludes a row, such as a
    <blnk>-padded one, from both the loss and the gradient.
    """
    t = as_tensor(logits)
    x = t.data
    ids = np.asarray(target_ids)
    if x.shape[:-1] != ids.shape:
        raise NumericError(
            f"cross_entropy shape mismatch: logits {x.shape} vs targets {ids.shape}")
    m = x.shape[-1]
    if not np.issubdtype(ids.dtype, np.integer) or np.any((ids < 0) | (ids >= m)):
        raise NumericError(f"target ids must be integers in [0, {m})")
    mask = np.ones(ids.shape) if row_mask is None else np.asarray(row_mask, dtype=np.float64)
    if mask.shape != ids.shape:
        raise NumericError(
            f"cross_entropy row mask shape {mask.shape} does not match targets {ids.shape}")

    mx = np.max(x, axis=-1, keepdims=True)
    e = np.exp(x - mx)
    s = e.sum(axis=-1, keepdims=True)
    target = np.take_along_axis(x, ids[..., None], axis=-1) - mx
    nll = (np.log(s) - target)[..., 0]
    loss = (nll * mask).sum()
    if not np.isfinite(loss):
        raise NumericError("non-finite cross-entropy")

    def grad_fn(g):
        grad = e / s
        rows = grad.reshape(-1, m)
        rows[np.arange(rows.shape[0]), ids.reshape(-1)] -= 1.0
        return (grad * (mask * g)[..., None],)

    return _node(loss, (t,), grad_fn)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis with learned gain and bias."""
    x = as_tensor(x)
    gain = as_tensor(gain)
    bias = as_tensor(bias)
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    out_data = xhat * xhat  # the squares' buffer becomes the output
    inv = 1.0 / np.sqrt(out_data.mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def grad_fn(g):
        dx = dgain = dbias = None
        if x.requires_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dx = inv * (dxhat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            dgain = (g * xhat).sum(axis=axes)
        if bias.requires_grad:
            dbias = g.sum(axis=axes)
        return (dx, dgain, dbias)

    return _node(out_data, (x, gain, bias), grad_fn)


def embedding(weight: Tensor, ids) -> Tensor:
    """Row gather: out[..., :] = weight[ids[...], :] for ids in [0, V).

    The backward pass is one weighted `np.bincount` over the flat
    (id, column) cells. It adds the gradient rows of a repeated id in the
    order they occur, so its sums equal `np.add.at`'s bit for bit.
    """
    ids = np.asarray(ids)
    w = as_tensor(weight)
    n_rows, width = w.data.shape

    def grad_fn(g):
        cells = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        out = np.bincount(cells, weights=g.reshape(-1), minlength=n_rows * width)
        return (out.reshape(n_rows, width),)

    return _node(w.data[ids], (w,), grad_fn)


def causal_mask(n: int, offset: int = 0) -> Array:
    """Additive (n, offset + n) mask for n queries at positions
    offset..offset+n-1 over keys 0..offset+n-1: 0 where the key sits at or
    before the query's position, -inf after it. Offset 0 is the square
    teacher-forced mask."""
    return np.triu(np.full((n, offset + n), -np.inf), k=offset + 1)


def attention_map(q, k, causal: bool = True, extra_mask: Array | None = None) -> Tensor:
    """Row-stochastic attention map softmax(q k^T / sqrt(d)), one node.

    Accepts (..., n, d) stacks; `extra_mask` is an additive mask broadcast
    onto the score matrix (used for padded key positions and score priors).
    Under `causal`, the n_q queries are the last n_q of the n_k key
    positions, so query i sees keys 0..n_k-n_q+i; n_q == n_k is the square
    teacher-forced map. Masked entries (-inf) map to exactly 0; a row with
    no unmasked entry raises.

    The backward pass is the analytic softmax backward,
    dS = P * (g - rowsum(P * g)) * scale, followed by dq = dS k and
    dk = dS^T q.
    """
    q = as_tensor(q)
    k = as_tensor(k)
    d = q.data.shape[-1]
    if d == 0:
        raise NumericError("attention requires key/query dimension >= 1")
    n_q = q.data.shape[-2]
    n_k = k.data.shape[-2]
    if causal and n_q > n_k:
        raise NumericError("causal attention needs at least as many keys as queries")
    scale = 1.0 / math.sqrt(d)
    p = q.data @ np.swapaxes(k.data, -1, -2)
    p *= scale
    if causal:
        p += causal_mask(n_q, n_k - n_q)
    if extra_mask is not None:
        p += extra_mask
    mx = np.max(p, axis=-1, keepdims=True)
    if np.any(np.isneginf(mx)):
        raise NumericError("degenerate attention row")
    p -= mx
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    if not np.all(np.isfinite(p)):
        raise NumericError("non-finite attention map")

    def grad_fn(g):
        ds = g - (p * g).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        gq = gk = None
        if q.requires_grad:
            gq = _unbroadcast(ds @ k.data, q.data.shape)
        if k.requires_grad:
            # (q^T dS)^T: the same products as dS^T q, summed in the order
            # the unfused score matmul's backward used
            gk = _unbroadcast(np.swapaxes(np.swapaxes(q.data, -1, -2) @ ds, -1, -2),
                              k.data.shape)
        return (gq, gk)

    return _node(p, (q, k), grad_fn)


def column_squared_error(tensors: Sequence, picks: Sequence[tuple[int, int]],
                         columns: Sequence[int], goal: Array, row_mask: Array) -> Tensor:
    """Squared error between gathered columns of (B, H, N, M) tensors and a
    goal, summed over the picks, the batch, the unmasked rows and the columns.

    Pick (i, h) gathers tensors[i][:, h, :, columns]; a repeated pick counts
    twice. `goal` is (B, N, len(columns)) and shared by every pick; rows where
    the (B, N) `row_mask` is False add nothing. The backward, 2 (a - goal) on
    unmasked rows, is written into the picked columns only, so every other
    entry gets an exactly zero gradient."""
    ts = [as_tensor(t) for t in tensors]
    cols = list(columns)
    gathered = np.stack([ts[i].data[:, h][..., cols] for i, h in picks], axis=1)
    diff = gathered - goal[:, None]
    diff *= row_mask[:, None, :, None]
    loss = np.sum(diff * diff)
    used = sorted({i for i, _ in picks})

    def grad_fn(g):
        scaled = diff * (2.0 * g)
        grads = {i: np.zeros(ts[i].shape) for i in used}
        for k, (i, h) in enumerate(picks):
            for c, col in enumerate(cols):
                grads[i][:, h, :, col] += scaled[:, k, :, c]
        return tuple(grads[i] for i in used)

    return _node(loss, tuple(ts[i] for i in used), grad_fn)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

# AdamW's moment decays and denominator epsilon, the same for every run
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """AdamW state: per-parameter moments plus the shared step counter."""

    lr: float = 1e-3
    weight_decay: float = 0.0
    step: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def adamw_step(state: OptimizerState, params: Mapping[str, Parameter],
               grads: GradientStore) -> None:
    """One AdamW update. Weight decay is decoupled: it scales the parameter
    directly instead of entering the moment estimates.

    Every parameter's new value and moments are computed into new arrays and
    checked before any of them is stored, so a step that raises NumericError
    leaves the parameters, the moments and the step counter exactly as they
    were. Storing swaps the new arrays in; nothing is copied."""
    for name in grads:
        if name not in params:
            raise NumericError(f"gradient for unknown parameter {name!r}")
        if grads[name].shape != params[name].data.shape:
            raise NumericError(
                f"gradient shape {grads[name].shape} does not match "
                f"parameter {name!r} shape {params[name].data.shape}")

    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    # two scratch buffers, sized for the largest parameter, serve every update
    size = max((grads[name].size for name in grads), default=0)
    buf_a = np.empty(size)
    buf_b = np.empty(size)
    staged = []
    for name in sorted(grads):
        p = params[name]
        g = grads[name]
        tmp = buf_a[:g.size].reshape(g.shape)
        update = buf_b[:g.size].reshape(g.shape)
        zeros = None if name in state.m else np.zeros_like(p.data)
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + (1 - beta2) g^2
        mn = state.m.get(name, zeros) * ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        mn += tmp
        vn = state.v.get(name, zeros) * ADAM_BETA2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        vn += tmp
        # update = (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(vn, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(mn, bc1, out=update)
        update /= tmp
        update *= state.lr
        if state.weight_decay != 0.0:
            pn = p.data * (1.0 - state.lr * state.weight_decay)
            pn -= update
        else:
            pn = p.data - update
        if not np.all(np.isfinite(pn)):
            raise NumericError(f"non-finite parameter after update: {name!r}")
        staged.append((name, pn, mn, vn))
    for name, pn, mn, vn in staged:
        params[name].data = pn
        state.m[name] = mn
        state.v[name] = vn
    state.step = t


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def finite_diff_grad(f: Callable[[Array], float], p: Array, h: float = 1e-4) -> Array:
    """Central-difference gradient of scalar `f` at `p`, one coordinate at a time."""
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    base = np.array(p, dtype=np.float64)
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(base.copy()))
        flat[i] = orig - h
        fm = float(f(base.copy()))
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad

