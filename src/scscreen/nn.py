"""A small convolutional regressor/classifier over periodic-table tensors.

Everything is plain numpy: stacked 3x3 same-padding convolutions with
rectifier activations, global average pooling, an optional dense hidden
layer, and a scalar head that is either a regression value (kelvin, through
an invertible target transform) or a binary logit. Gradients are exact and
analytic - the test suite checks every parameter against central finite
differences - and the optimizer is bias-corrected Adam.

Parameters and activations default to float32 (the conventional training
precision; roughly halves wall time on BLAS); set ModelConfig.dtype to
"float64" for gradient-verification work. Losses and target transforms
always compute in float64 regardless.

Array layout: the public interface speaks (batch, 4, 7, 32) channel-first
tensors, matching the encoder; internally activations run channel-last
(batch, 7, 32, C) so the im2col matrices feed BLAS without extra transposes.
Convolution weights are (c_in, c_out, 3, 3); dense weights are
(fan_in, fan_out).

The first conv layer reads a batch's nonzero cells, not its 896-cell
grid (a composition of k elements fills k cells): each cell adds its
value times the kernel at the nine outputs it reaches, a convolution
computed only where its input is nonzero (Graham & van der Maaten, arXiv
1706.01307). `_entries` is the one way from a tensor to those cells. Later
layers build im2col patch matrices. The forward pass keeps layer 0's cells
and every conv layer's rectified output, which is also the next layer's
input; the backward pass reads each rectifier's mask off the kept output
(output > 0 exactly where the pre-activation is). It builds one patch
matrix per later layer from the output gradient and reads both the weight
gradient and the input gradient (a transposed convolution) from it; layer
0 needs only its weight gradient, one GEMM over its cells. Pooling and
bias gradients sum through a product with a ones vector, which BLAS runs
10-15x faster than NumPy's axis sums over a 4- to 32-wide last axis.

Scratch arrays come from a workspace dict that lives for one call (one
`forward`, `backward` or `predict`, or one `train` run) and is dropped when
the call returns; no view into it ever escapes the call. `forward` and
`predict` take their rows in chunks and forward each chunk's cells as a
full batch on one workspace (a short last chunk fills up with empty rows).
A chunk has _INFER_ROWS rows, or, for a model with two or more conv
layers, as many as keep its im2col patch matrix within _PATCH_BYTES (16
rows at 32 float32 channels); since nothing runs backward, the layers
write their outputs to two alternating buffers. So their scratch memory
does not grow with the number of rows (only `predict`'s encoded rows do,
at about k × 12 B each), and every GEMM has one shape for the model,
which makes a row's prediction independent of how many rows the call has.

`encode_rows` turns compositions into `EncodedRows`: each row's nonzero
cells (index and value) in two (n, k) arrays, about k × 12 B per row for k
elements in float32 instead of a dense row's 3,584 B. `train` and
`predict` take such rows in place of compositions, with the same bits, so
an experiment that trains many models on overlapping rows encodes each row
once; `take(idx)` selects rows. `train` and `predict` encode compositions
at entry and then take the same path as for encoded rows: each batch's
cells go straight to the first layer, so no dense batch is ever built.

`config_echo` and `config_from_dict` are the one JSON form of the config
dataclasses, shared by experiment specs, manifests and checkpoints: each is
the inverse of the other, nested configs, tuples and frozensets included.
`_read` takes each field's JSON type from its annotation; a mismatch is a
ValueError "`experiment.model.conv_layers: expected integer, got string
'2'`", and `__post_init__` checks ranges (finite rates, seeds >= 0).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING, dataclass
from enum import Enum
from types import UnionType
from typing import Callable, Mapping, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    EmptyDatasetError,
    LengthMismatchError,
    ShapeMismatchError,
    UnknownFieldError,
    UnknownValueError,
)
from .ptable import TENSOR_SHAPE, TENSOR_SIZE, encode_ptable_batch

H_GRID, W_GRID = 7, 32
N_CELLS = H_GRID * W_GRID  # global-average-pool divisor
KERNEL = 3
_INFER_ROWS = 32  # rows per inference chunk at most; TrainConfig's default batch size
_PATCH_BYTES = 4 << 20  # an inference chunk's im2col patch matrix at most, if it has one

CHECKPOINT_FORMAT_VERSION = 1


class Head(Enum):
    REGRESSION = "regression"
    BINARY_LOGIT = "binary_logit"


class TcTransform(Enum):
    LINEAR = "linear"
    LOG_SHIFT_0P1 = "log_shift_0p1"


class Loss(Enum):
    SMOOTH_L1 = "smooth_l1"
    BCE_LOGIT = "bce_logit"


class LabelOutOfRangeError(ValueError):
    pass


class NegativeTcError(ValueError):
    pass


class DivergenceDetectedError(ArithmeticError):
    """Raised when training hits a non-finite loss; carries the epoch/step.
    Pickles through its constructor arguments, so it crosses processes."""

    def __init__(self, epoch: int, step: int, loss: float):
        super().__init__(
            f"non-finite loss {loss!r} at epoch {epoch}, step {step}; "
            "lower the learning rate or inspect the targets"
        )
        self.epoch = epoch
        self.step = step
        self.loss = loss

    def __reduce__(self):
        return type(self), (self.epoch, self.step, self.loss)


@dataclass(frozen=True)
class ModelConfig:
    conv_layers: int = 9
    channels_per_layer: int = 32
    dense_hidden: int = 64  # 0 disables the hidden layer
    head: Head = Head.REGRESSION
    tc_transform: TcTransform = TcTransform.LOG_SHIFT_0P1
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        if self.conv_layers < 1:
            raise ValueError(f"conv_layers must be >= 1, got {self.conv_layers}")
        if self.channels_per_layer < 1:
            raise ValueError(
                f"channels_per_layer must be >= 1, got {self.channels_per_layer}"
            )
        if self.dense_hidden < 0:
            raise ValueError(f"dense_hidden must be >= 0, got {self.dense_hidden}")
        if not isinstance(self.head, Head):
            raise ValueError(f"head must be a Head, got {self.head!r}")
        if not isinstance(self.tc_transform, TcTransform):
            raise ValueError(f"tc_transform must be a TcTransform, got {self.tc_transform!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 32
    epochs: int = 100
    shuffle_seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.shuffle_seed < 0:
            raise ValueError(f"shuffle_seed must be >= 0, got {self.shuffle_seed}")


def config_echo(cfg) -> dict:
    """JSON-ready echo of a config dataclass, the inverse of
    `config_from_dict`: every init field in declaration order, by `_echo`."""
    return {f.name: _echo(getattr(cfg, f.name)) for f in dataclasses.fields(cfg) if f.init}


def _echo(value):
    """A field value as JSON: a nested config as an object, an enum member
    by name, a tuple as a list, and a frozenset as a sorted list (a
    frozenset of enums iterates in a different order in each process)."""
    if dataclasses.is_dataclass(value):
        return config_echo(value)
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, frozenset):
        return sorted(_echo(v) for v in value)
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    return value


def config_from_dict(cls, data: Mapping, what: str):
    """Build config dataclass `cls` from a JSON-shaped mapping.

    Each init field is read by `_read` against its annotation. Unknown
    keys, and absent fields that have no default, raise UnknownFieldError;
    absent fields with a default keep it. `what` is the dotted path of the
    config in error messages.
    """
    if not isinstance(data, Mapping):
        raise _mismatch(what, "object", data)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    names = [f.name for f in fields]
    unknown = set(data) - set(names)
    if unknown:
        raise UnknownFieldError(f"unknown {what} field(s) {sorted(unknown)}; known: {names}")
    missing = [f.name for f in fields
               if f.name not in data and f.default is f.default_factory is MISSING]
    if missing:
        raise UnknownFieldError(f"{what} needs field(s) {missing}")
    hints = get_type_hints(cls)
    return cls(**{k: _read(hints[k], v, f"{what}.{k}") for k, v in data.items()})


_JSON_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "list", dict: "object"}


def _mismatch(path: str, want: str, value) -> ValueError:
    got = f"{_JSON_KINDS.get(type(value), type(value).__name__)} {value!r}"
    return ValueError(f"{path}: expected {want}, got {'null' if value is None else got}")


def _read(tp, value, path: str):
    """JSON `value` read as field type `tp`: an int that is not a bool, a
    float that also takes an int, a str, an enum member's name in any case,
    a config dataclass from an object, a tuple[X, ...] or frozenset[X] from
    a list, and null for `X | None`. A mismatch is a ValueError naming `path`."""
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType:
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _read(tp, value, path)
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise _mismatch(path, "list", value)
        return origin(_read(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return config_from_dict(tp, value, path)
    if issubclass(tp, Enum):
        if not isinstance(value, str) or value.upper() not in tp.__members__:
            raise UnknownValueError(path, value, tp)
        return tp[value.upper()]
    if isinstance(value, bool) or not isinstance(value, (int, float) if tp is float else tp):
        raise _mismatch(path, _JSON_KINDS[tp], value)
    try:
        return float(value) if tp is float else value
    except OverflowError:  # an integer past the float range
        raise _mismatch(path, "finite number", value) from None


@dataclass
class ModelParams:
    """All learnable arrays; `arrays()` fixes the flat order used by the
    optimizer, gradients, and checkpoints."""

    config: ModelConfig
    conv_w: list  # [(c_in, c_out, 3, 3)]
    conv_b: list  # [(c_out,)]
    dense_w: np.ndarray | None  # (C, dense_hidden)
    dense_b: np.ndarray | None
    head_w: np.ndarray  # (fan_in, 1)
    head_b: np.ndarray  # (1,)

    def arrays(self) -> list:
        out = []
        for w, b in zip(self.conv_w, self.conv_b):
            out.extend((w, b))
        if self.dense_w is not None:
            out.extend((self.dense_w, self.dense_b))
        out.extend((self.head_w, self.head_b))
        return out


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0


def init_params(cfg: ModelConfig) -> ModelParams:
    """He-style initialization: N(0, 2/fan_in) weights, zero biases."""
    rng = np.random.default_rng(cfg.seed)
    dt = cfg.np_dtype
    conv_w, conv_b = [], []
    c_in = TENSOR_SHAPE[0]
    for _ in range(cfg.conv_layers):
        c_out = cfg.channels_per_layer
        fan_in = c_in * KERNEL * KERNEL
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), (c_in, c_out, KERNEL, KERNEL))
        conv_w.append(w.astype(dt))
        conv_b.append(np.zeros(c_out, dtype=dt))
        c_in = c_out
    if cfg.dense_hidden > 0:
        dense_w = rng.normal(0.0, np.sqrt(2.0 / c_in), (c_in, cfg.dense_hidden)).astype(dt)
        dense_b = np.zeros(cfg.dense_hidden, dtype=dt)
        fan = cfg.dense_hidden
    else:
        dense_w = dense_b = None
        fan = c_in
    head_w = rng.normal(0.0, np.sqrt(2.0 / fan), (fan, 1)).astype(dt)
    head_b = np.zeros(1, dtype=dt)
    return ModelParams(cfg, conv_w, conv_b, dense_w, dense_b, head_w, head_b)


def init_adam(params: ModelParams) -> AdamState:
    arrays = params.arrays()
    return AdamState(
        m=[np.zeros_like(a) for a in arrays],
        v=[np.zeros_like(a) for a in arrays],
    )


# ---------------------------------------------------------------------------
# forward / backward


def _windows(padded: np.ndarray) -> np.ndarray:
    """Contiguous (n, H+2, W+2, C) -> read-only view (n, H, W, 3, 3, C) of
    3x3 patches. Not `as_strided`: its `__array_interface__` read wears one
    slot of CPython's interned-string table per call, and the table's
    rebuild (1-2 MB) every ~32,000 calls lands inside some forward pass."""
    n, hp, wp, c = padded.shape
    s0, s1, s2, s3 = padded.strides
    shape, strides = (n, hp - 2, wp - 2, KERNEL, KERNEL, c), (s0, s1, s2, s1, s2, s3)
    view = np.ndarray(shape, padded.dtype, buffer=padded, strides=strides)
    view.flags.writeable = False
    return view


def _ws_buf(ws: dict, key: tuple, shape: tuple, dtype, fill=None):
    """Scratch array of `shape` from the workspace, keyed on `key`, the
    trailing dims and the dtype; a new one holds `fill` if given.

    A buffer with at least as many leading rows is reused through a view of
    its first rows; a larger request replaces it. The result is valid only
    until the same key is requested again, which is why a workspace lives
    for one call and no view into it escapes that call.
    """
    full = key + (shape[1:], np.dtype(dtype).char)
    buf = ws.get(full)
    if buf is None or buf.shape[0] < shape[0]:
        buf = np.empty(shape, dtype) if fill is None else np.full(shape, fill, dtype)
        ws[full] = buf
    return buf[: shape[0]]


def _ones(ws: dict, n: int, dtype) -> np.ndarray:
    """A ones vector of length n; `ones @ a` sums the rows of `a`."""
    return _ws_buf(ws, ("ones",), (n,), dtype, fill=1)


def _im2col(x: np.ndarray, ws: dict) -> np.ndarray:
    """(n, H, W, C) -> (n*H*W, 9*C) patch matrix, feature order (ky, kx, c).

    Every call with C channels (each layer, forward and backward, and every
    chunk) shares one pad and one patch buffer: the result is valid only
    until the next call. Only the pad interior is ever written, so its zero
    border survives reuse, also through a view of fewer rows.
    """
    n, h, w, c = x.shape
    pad = _ws_buf(ws, ("pad",), (n, h + 2, w + 2, c), x.dtype, fill=0)
    pad[:, 1:-1, 1:-1, :] = x
    cols = _ws_buf(ws, ("cols",), (n * h * w, KERNEL * KERNEL * c), x.dtype)
    np.copyto(cols.reshape(n, h, w, KERNEL, KERNEL, c), _windows(pad))
    return cols


# Layer 0 takes entries (flat, values): flat = row * TENSOR_SIZE + cell
# indexes a channel-last (n, 7, 32, 4) batch, cell = (y * 32 + x) * 4 + channel.

_OFF_GRID = 2**40  # past every row's cells; np.minimum sends it to the trash row


def _tap_targets() -> np.ndarray:
    """(9, TENSOR_SIZE): the output cell y' * 32 + x' that tap (ky, kx)
    carries each input cell to, y' = y + 1 - ky and x' = x + 1 - kx (a
    cross-correlation), or _OFF_GRID where that leaves the grid."""
    y, x = np.divmod(np.arange(TENSOR_SIZE) // TENSOR_SHAPE[0], W_GRID)
    ky, kx = np.divmod(np.arange(KERNEL * KERNEL)[:, None], KERNEL)
    ty, tx = y + 1 - ky, x + 1 - kx
    on = (ty >= 0) & (ty < H_GRID) & (tx >= 0) & (tx < W_GRID)
    return np.where(on, ty * W_GRID + tx, _OFF_GRID)


_TAP_TARGETS = _tap_targets()
_CELL_CHANNEL = np.arange(TENSOR_SIZE) % TENSOR_SHAPE[0]


def _entries(batch: np.ndarray, dtype, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Layer-0 entries of a channel-first (m, 4, 7, 32) batch taken as rows
    first to first + m - 1: its nonzero cells' channel-last flat indices and
    their values in `dtype`, in channel-first scan order."""
    flat = batch.reshape(-1)
    nz = np.flatnonzero(flat != 0)  # a bool mask scans ~8x faster than the floats
    row, chw = np.divmod(nz, TENSOR_SIZE)
    channel, hw = np.divmod(chw, N_CELLS)
    cell = hw * TENSOR_SHAPE[0] + channel
    return (row + first) * TENSOR_SIZE + cell, flat[nz].astype(dtype)


def _conv0(w: np.ndarray, b: np.ndarray, entries, n: int, ws: dict):
    """Layer 0's pre-activation (n * 224, c_out) from its entries, and the
    taps its weight gradient reads.

    The outputs start at the bias, and each entry adds its value times
    w[channel, :, ky, kx] at the output cell of every tap (ky, kx); an
    off-grid tap lands on a trash row after the outputs. np.add.at does not
    buffer, so two entries at one target both count (two channels of one
    cell, in a tensor that is no encoded composition). Terms go in tap by
    tap, so an output sums its taps in one order whatever order the entries
    come in.
    """
    c_in, c_out = w.shape[0], w.shape[1]
    flat, values = entries
    row, cell = np.divmod(flat, TENSOR_SIZE)
    at = np.minimum(row * N_CELLS + _TAP_TARGETS[:, cell], n * N_CELLS)  # (9, e)
    channel = _CELL_CHANNEL[cell]
    pre = _ws_buf(ws, ("act", 0), (n * N_CELLS + 1, c_out), w.dtype)
    pre[:-1].reshape(n * H_GRID, W_GRID * c_out)[:] = np.tile(b, W_GRID)
    pre[-1] = 0  # the trash row: np.empty may leave a signalling nan there
    # the (9, e, c_out) terms and their flat targets reuse workspace buffers:
    # fresh ones of this size fault their pages in on every call
    shape = (KERNEL * KERNEL, len(values), c_out)
    size = (KERNEL * KERNEL * len(values) * c_out,)
    terms = _ws_buf(ws, ("terms",), size, w.dtype).reshape(shape)
    w_taps = w.transpose(2, 3, 0, 1).reshape(KERNEL * KERNEL, c_in, c_out)
    np.take(w_taps, channel, axis=1, out=terms, mode="clip")
    terms *= values[:, None]
    targets = _ws_buf(ws, ("targets",), size, np.intp).reshape(shape)
    np.add((at * c_out)[:, :, None], np.arange(c_out), out=targets)
    np.add.at(pre.reshape(-1), targets.reshape(-1), terms.reshape(-1))
    return pre[:-1], (at, channel, values)


def _conv0_weight_grad(taps, dpre: np.ndarray, c_in: int, ws: dict) -> np.ndarray:
    """Layer 0's weight gradient (c_in, c_out, 3, 3) from `_conv0`'s taps
    and the output gradient `dpre`, (n * 224 + 1, c_out) with a zero last
    row: each entry's nine output-gradient rows, weighted by its value and
    summed per input channel in one (c_in, e) @ (e, 9 * c_out) GEMM."""
    at, channel, values = taps
    e, c_out = len(values), dpre.shape[1]
    by_channel = np.zeros((c_in, e), dpre.dtype)
    by_channel[channel, np.arange(e)] = values
    rows = _ws_buf(ws, ("rows",), (e * KERNEL * KERNEL * c_out,), dpre.dtype)
    np.take(dpre, at.T, axis=0, out=rows.reshape(e, KERNEL * KERNEL, c_out), mode="clip")
    m = by_channel @ rows.reshape(e, KERNEL * KERNEL * c_out)
    return np.ascontiguousarray(m.reshape(c_in, KERNEL, KERNEL, c_out).transpose(0, 3, 1, 2))


def _check_batch(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[1:] != TENSOR_SHAPE:
        raise ShapeMismatchError(
            f"expected a batch of shape (n, {TENSOR_SHAPE[0]}, {TENSOR_SHAPE[1]}, "
            f"{TENSOR_SHAPE[2]}), got {x.shape}"
        )
    if x.shape[0] == 0:
        raise ShapeMismatchError("batch is empty")
    return x


def _forward_cached(params: ModelParams, entries, n: int, ws: dict, infer: bool = False):
    """Run the network on n rows given as layer-0 entries, keeping what the
    backward pass needs: layer 0's taps and every conv layer's rectified
    output (n * 224, c_out), which is also the next layer's input and
    gives the rectifier's mask (output > 0). Rows without entries are
    empty rows: `_forward_chunks` fills a short last chunk with them.

    With `infer`, layer i writes its output to workspace buffer i % 2, so
    only the last two outputs stay valid and no backward pass can read the
    cache."""
    outs = []
    for i, (w, b) in enumerate(zip(params.conv_w, params.conv_b)):
        c_in, c_out = w.shape[0], w.shape[1]
        have = TENSOR_SHAPE[0] if i == 0 else outs[-1].shape[1]
        if have != c_in:
            raise ShapeMismatchError(f"layer expects {c_in} input channels, got {have}")
        if i == 0:
            pre, taps = _conv0(w, b, entries, n, ws)
        else:
            cols = _im2col(outs[-1].reshape(n, H_GRID, W_GRID, c_in), ws)  # (n*HW, 9*c_in)
            w_flat = w.transpose(2, 3, 0, 1).reshape(KERNEL * KERNEL * c_in, c_out)
            pre = _ws_buf(ws, ("act", i % 2 if infer else i), (cols.shape[0], c_out), cols.dtype)
            np.matmul(cols, w_flat, out=pre)
            pre += b
        outs.append(np.maximum(pre, 0.0, out=pre))
    # global average pool, (n, C): each row's cells summed in BLAS
    g = _ones(ws, N_CELLS, pre.dtype) @ pre.reshape(n, N_CELLS, -1) / N_CELLS
    h = g if params.dense_w is None else np.maximum(g @ params.dense_w + params.dense_b, 0.0)
    raw = (h @ params.head_w).ravel() + params.head_b[0]
    return raw, (g, h, taps, outs)


def _forward_chunks(
    params: ModelParams, n: int, chunk: Callable[[int, int], tuple[np.ndarray, np.ndarray]]
) -> np.ndarray:
    """Raw head outputs of n rows; `chunk(lo, hi)` returns the layer-0
    entries of rows lo:hi, in the model's dtype, as rows 0 to hi - lo - 1.

    Each chunk's nonzero cells are forwarded as a full batch of `rows`
    rows through one workspace that holds two layer outputs, and the first
    hi - lo outputs are kept; a short last chunk forwards empty rows after
    its own and drops them. So every GEMM has one shape for the model, and
    a row's output does not depend on n. A model with a patch matrix (two
    or more conv layers) takes as many rows, up to _INFER_ROWS, as keep
    that matrix within _PATCH_BYTES: 16 at 32 float32 channels.
    """
    cfg = params.config
    dt = cfg.np_dtype
    rows = _INFER_ROWS
    if cfg.conv_layers > 1:
        row_bytes = N_CELLS * KERNEL * KERNEL * cfg.channels_per_layer * dt.itemsize
        rows = min(rows, max(1, _PATCH_BYTES // row_bytes))
    raw = np.empty(n, dtype=dt)
    ws: dict = {}
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        raw[lo:hi] = _forward_cached(params, chunk(lo, hi), rows, ws, infer=True)[0][: hi - lo]
    return raw


def forward(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Raw head outputs for a (n, 4, 7, 32) batch: regression values in the
    transformed target space, or logits."""
    x = _check_batch(batch)
    dt = params.config.np_dtype
    return _forward_chunks(params, x.shape[0], lambda lo, hi: _entries(x[lo:hi], dt))


def _backward_cached(params: ModelParams, cache, dout: np.ndarray, ws: dict) -> list:
    """Gradients in arrays() order given d(loss)/d(raw output)."""
    g, h, taps, outs = cache
    n = len(g)
    dt = params.head_w.dtype
    dout = dout.astype(dt, copy=False)
    d_head_w = (h.T @ dout[:, None]).astype(dt, copy=False)
    d_head_b = np.array([dout.sum()], dtype=dt)
    dh = np.outer(dout, params.head_w[:, 0])
    if params.dense_w is not None:
        dpre_d = dh
        dpre_d *= h > 0.0
        d_dense_w = g.T @ dpre_d
        d_dense_b = dpre_d.sum(axis=0)
        dg = dpre_d @ params.dense_w.T
        grads_tail = [d_dense_w, d_dense_b, d_head_w, d_head_b]
    else:
        dg = dh
        grads_tail = [d_head_w, d_head_b]

    # the pooled gradient spreads evenly back over the 224 grid cells; each
    # gradient buffer has one more row, zeroed for layer 0's off-grid taps
    ones = _ones(ws, n * N_CELLS, dt)
    dpre = _ws_buf(ws, ("dpre",), (n * N_CELLS + 1, dg.shape[1]), dt)
    dpre[:-1].reshape(n, N_CELLS, dg.shape[1])[:] = (dg * (1.0 / N_CELLS))[:, None, :]
    conv_grads = []
    for layer in range(len(params.conv_w) - 1, -1, -1):
        w = params.conv_w[layer]
        c_in, c_out = w.shape[0], w.shape[1]
        dpre_flat = dpre[:-1]
        # every layer's rectifier mask shares one buffer
        mask = _ws_buf(ws, ("mask",), dpre_flat.shape, np.bool_)
        dpre_flat *= np.greater(outs[layer], 0.0, out=mask)
        d_b = ones @ dpre_flat
        if layer == 0:
            dpre[-1] = 0
            conv_grads.append((_conv0_weight_grad(taps, dpre, c_in, ws), d_b))
            break
        # Both gradients come from the output gradient's patch matrix, the
        # transposed convolution of Dumoulin & Visin (arXiv 1603.07285):
        # dcols.T @ x_in is the weight gradient of the kernel rotated 180
        # degrees with in/out swapped, m[(2-ky, 2-kx, co), ci] =
        # d_w[ci, co, ky, kx], and dcols @ w_rot is the input gradient.
        dcols = _im2col(dpre_flat.reshape(n, H_GRID, W_GRID, c_out), ws)  # (n*HW, 9*c_out)
        m = dcols.T @ outs[layer - 1]  # (9*c_out, c_in)
        d_w = np.ascontiguousarray(
            m.reshape(KERNEL, KERNEL, c_out, c_in)[::-1, ::-1].transpose(3, 2, 0, 1)
        )
        conv_grads.append((d_w, d_b))
        w_rot = w[:, :, ::-1, ::-1].transpose(2, 3, 1, 0).reshape(KERNEL * KERNEL * c_out, c_in)
        # dcols holds its own copy of dpre_flat, so the GEMM may overwrite it
        dpre = _ws_buf(ws, ("dpre",), (n * N_CELLS + 1, c_in), dt)
        np.matmul(dcols, w_rot, out=dpre[:-1])

    grads = []
    for d_w, d_b in reversed(conv_grads):
        grads.extend((d_w, d_b))
    grads.extend(grads_tail)
    return grads


def backward(
    params: ModelParams, batch: np.ndarray, targets: np.ndarray, loss: Loss
) -> list:
    """Exact gradients of the mean loss w.r.t. every parameter, in
    arrays() order. Targets live in the same space as forward's raw
    outputs (transformed kelvin for regression, {0,1} labels for logits)."""
    ws: dict = {}
    x = _check_batch(batch)
    raw, cache = _forward_cached(params, _entries(x, params.config.np_dtype), len(x), ws)
    _, dout = _LOSSES[loss](raw, targets)
    return _backward_cached(params, cache, dout, ws)


# ---------------------------------------------------------------------------
# losses and target transforms


def smooth_l1_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean smooth-L1 (quadratic within |d| < 1, linear outside) and its
    gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise LengthMismatchError(f"shapes differ: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise LengthMismatchError("need at least one element")
    d = pred - target
    a = np.abs(d)
    per = np.where(a < 1.0, 0.5 * d * d, a - 0.5)
    grad = np.clip(d, -1.0, 1.0) / d.size
    return float(per.mean()), grad


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_logit_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy on logits, in the overflow-safe form
    max(z,0) - z*y + log(1 + exp(-|z|)), with gradient (sigmoid(z) - y)/n."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if z.shape != y.shape:
        raise LengthMismatchError(f"shapes differ: {z.shape} vs {y.shape}")
    if z.size == 0:
        raise LengthMismatchError("need at least one element")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise LabelOutOfRangeError("labels must be exactly 0 or 1")
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    grad = (_sigmoid(z) - y) / z.size
    return float(per.mean()), grad


_LOSSES = {Loss.SMOOTH_L1: smooth_l1_loss, Loss.BCE_LOGIT: bce_logit_loss}
_HEAD_LOSS = {Head.REGRESSION: Loss.SMOOTH_L1, Head.BINARY_LOGIT: Loss.BCE_LOGIT}


def tc_transform(tc_kelvin, mode: TcTransform):
    """Map kelvin to the network's target space: a new float64 array, or a
    NumPy scalar for a scalar input."""
    tc = np.asarray(tc_kelvin, dtype=np.float64)
    if np.any(tc < 0):
        raise NegativeTcError(f"negative Tc in {tc_kelvin!r}")
    if mode is TcTransform.LINEAR:
        return np.positive(tc)
    if mode is TcTransform.LOG_SHIFT_0P1:
        return np.log(tc + 0.1)
    raise ValueError(f"unknown transform {mode!r}")


def inverse_tc_transform(value, mode: TcTransform):
    """Map the network's target space back to kelvin, in the same form."""
    v = np.asarray(value, dtype=np.float64)
    if mode is TcTransform.LINEAR:
        return np.positive(v)
    if mode is TcTransform.LOG_SHIFT_0P1:
        return np.maximum(np.exp(v) - 0.1, 0.0)
    raise ValueError(f"unknown transform {mode!r}")


# ---------------------------------------------------------------------------
# optimizer


def adam_step(
    params: ModelParams, grads: list, state: AdamState, lr: float
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update, in place on params and state."""
    arrays = params.arrays()
    if len(grads) != len(arrays):
        raise ShapeMismatchError(f"expected {len(arrays)} gradients, got {len(grads)}")
    for a, g in zip(arrays, grads):
        if a.shape != g.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} != parameter {a.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        a -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return params, state


# ---------------------------------------------------------------------------
# training and prediction


@dataclass(frozen=True, eq=False)
class EncodedRows:
    """Compositions as their nonzero cells, from `encode_rows`: two (n, k)
    arrays, `cells` (the flat index into a channel-last (7, 32, 4) row) and
    `values`. k is the most nonzero cells in any row; a shorter row is
    padded with cell 0 at value 0, which `_batch_entries` drops. `train`
    and `predict` take them in place of compositions, so rows used by many
    models are encoded once."""

    cells: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.cells)

    def take(self, idx) -> EncodedRows:
        """Rows `idx` (an index array), in that order."""
        return EncodedRows(self.cells[idx], self.values[idx])


def encode_rows(compositions: Sequence[Mapping[str, float]], dtype) -> EncodedRows:
    """Each composition's nonzero cells, with values in `dtype`: the
    model's dtype, or `train` and `predict` cast them to it.

    Rows are encoded _INFER_ROWS at a time through `encode_ptable_batch`;
    the (n, k) layout is built once, after the last chunk. A row's cells
    come in the order `_entries` scans them, so a model reads the same
    entries from these rows as from the compositions.
    """
    comps = list(compositions)
    if not comps:
        return EncodedRows(np.zeros((0, 1), np.intp), np.zeros((0, 1), dtype))
    chunks = [
        _entries(encode_ptable_batch(comps[lo : lo + _INFER_ROWS]), dtype, lo)
        for lo in range(0, len(comps), _INFER_ROWS)
    ]
    row, cell = np.divmod(np.concatenate([flat for flat, _ in chunks]), TENSOR_SIZE)
    counts = np.bincount(row, minlength=len(comps))
    k = max(int(counts.max()), 1)
    rank = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
    cells = np.zeros((len(comps), k), np.intp)
    values = np.zeros((len(comps), k), dtype)
    cells[row, rank] = cell
    values[row, rank] = np.concatenate([vals for _, vals in chunks])
    return EncodedRows(cells, values)


def _batch_entries(
    cells: np.ndarray, values: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Layer-0 entries of rows `idx` of `EncodedRows` arrays, as rows 0 to
    len(idx) - 1 of a batch, without the padding."""
    flat = cells[idx] + (np.arange(len(idx)) * TENSOR_SIZE)[:, None]
    vals = values[idx]
    real = vals != 0
    return flat[real], vals[real]


def train(
    samples: Sequence[tuple[Mapping[str, float], float]] | EncodedRows,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    *,
    tc_kelvin: Sequence[float] | None = None,
    label_threshold: float = 0.0,
    on_epoch: Callable[[int, ModelParams, float], bool] | None = None,
) -> tuple[ModelParams, list[float]]:
    """Fit a model on (composition, tc_kelvin) pairs, or on `encode_rows`
    output with each row's Tc in `tc_kelvin`.

    The head fixes the loss: a REGRESSION head trains with smooth L1 on
    targets through the config's tc transform, a BINARY_LOGIT head with
    binary cross entropy on its logits against labels tc > label_threshold.
    Fully deterministic given the two seeds (parameter init and epoch
    shuffling). Returns the trained parameters and the per-epoch mean
    training loss.

    Pairs are encoded at entry, and both forms train alike, bit for bit:
    only each row's nonzero cells are kept, each step hands its batch's
    cells straight to the first conv layer, and no dense batch is built.

    `on_epoch(epoch, params, mean_loss)` runs after every epoch; returning
    truthy stops training early (used for hold-out-target stopping).
    """
    if len(samples) == 0:
        raise EmptyDatasetError("no training samples")
    encoded = isinstance(samples, EncodedRows)
    if encoded != (tc_kelvin is not None):
        raise ValueError("tc_kelvin goes with encoded rows, and only with them")
    tc = np.asarray(tc_kelvin if encoded else [t for _, t in samples], dtype=np.float64)
    n = len(samples)
    if tc.shape != (n,):
        raise LengthMismatchError(f"{n} rows but tc_kelvin has shape {tc.shape}")
    if model_cfg.head is Head.REGRESSION:
        targets = tc_transform(tc, model_cfg.tc_transform)
    else:
        targets = (tc > label_threshold).astype(np.float64)
    dt = model_cfg.np_dtype
    rows = samples if encoded else encode_rows([c for c, _ in samples], dt)
    cells, values = rows.cells, rows.values.astype(dt, copy=False)

    loss_fn = _LOSSES[_HEAD_LOSS[model_cfg.head]]
    params = init_params(model_cfg)
    state = init_adam(params)
    shuffle_rng = np.random.default_rng(train_cfg.shuffle_seed)
    trace: list[float] = []
    ws: dict = {}  # scratch buffers shared across steps
    for epoch in range(train_cfg.epochs):
        perm = shuffle_rng.permutation(n)
        total = 0.0
        for step, start in enumerate(range(0, n, train_cfg.batch_size)):
            idx = perm[start : start + train_cfg.batch_size]
            entries = _batch_entries(cells, values, idx)
            raw, cache = _forward_cached(params, entries, len(idx), ws)
            loss, dout = loss_fn(raw, targets[idx])
            if not np.isfinite(loss):
                raise DivergenceDetectedError(epoch, step, loss)
            grads = _backward_cached(params, cache, dout, ws)
            adam_step(params, grads, state, train_cfg.learning_rate)
            total += loss * len(idx)
        trace.append(total / n)
        if on_epoch is not None and on_epoch(epoch, params, trace[-1]):
            break
    return params, trace


def predict(
    params: ModelParams,
    compositions: Sequence[Mapping[str, float]] | EncodedRows,
) -> np.ndarray:
    """Predicted Tc in kelvin (REGRESSION, clamped at 0) or positive-class
    probability (BINARY_LOGIT) for each composition, or each row of
    `encode_rows` output; both forms give the same bits. Compositions are
    encoded by `encode_rows` first, so both take one path."""
    n = len(compositions)
    if n == 0:
        return np.zeros(0)
    dt = params.config.np_dtype
    encoded = isinstance(compositions, EncodedRows)
    rows = compositions if encoded else encode_rows(compositions, dt)

    def chunk(lo, hi):
        flat, vals = _batch_entries(rows.cells, rows.values, np.arange(lo, hi))
        return flat, vals.astype(dt, copy=False)

    raw = _forward_chunks(params, n, chunk).astype(np.float64)
    if params.config.head is Head.REGRESSION:
        kelvin = inverse_tc_transform(raw, params.config.tc_transform)
        return np.maximum(kelvin, 0.0)
    return _sigmoid(raw)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params: ModelParams, path) -> None:
    """Write params as an .npz with a JSON header; loading restores bitwise
    identical predictions."""
    meta = {"format_version": CHECKPOINT_FORMAT_VERSION, **config_echo(params.config)}
    arrays = {f"array_{i}": a for i, a in enumerate(params.arrays())}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> ModelParams:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]))
        if not isinstance(meta, dict):
            raise _mismatch("checkpoint", "object", meta)
        version = meta.pop("format_version", None)
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {version!r}")
        # A field that fell back to its default would load a different model
        # (a logit head as a regressor); only dtype may be absent, from
        # headers written before it existed, and then means float32.
        missing = {f.name for f in dataclasses.fields(ModelConfig)} - set(meta) - {"dtype"}
        if missing:
            raise ValueError(f"checkpoint header lacks {sorted(missing)}")
        params = init_params(config_from_dict(ModelConfig, meta, "checkpoint"))
        arrays = params.arrays()
        for i, a in enumerate(arrays):
            stored = data[f"array_{i}"]
            if stored.shape != a.shape:
                raise ValueError(f"checkpoint array {i} has shape {stored.shape}, expected {a.shape}")
            a[...] = stored
    return params
