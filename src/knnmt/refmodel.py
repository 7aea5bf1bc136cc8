"""Small trainable encoder-decoder used as the base translation model.

The encoder is a mean of source embeddings; the decoder is a single
recurrent cell queried one step at a time, so decoding strategies and
datastore construction only ever talk to the per-step interface, for one
row or a batch of rows. Residual bottleneck adapters can be inserted before
the output projection and trained with the base parameters frozen.
Gradients are written out by hand, which keeps the whole model checkable
against finite differences.
"""

from __future__ import annotations

import hashlib
import struct
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Collection, Sequence

import numpy as np

from .core import BOS_ID, EOS_ID, ParallelCorpus, Sentence, SentencePair
from .core import check_file_size, check_finite, read_array, read_bytes

BASE_PARAM_NAMES = ("E", "W_c", "W_y", "W_h", "b", "U", "b_o")
CHECKPOINT_MAGIC = b"RMDL"
CHECKPOINT_VERSION = 1
GRAD_CHECK_EPSILON = 1e-4
GRAD_CHECK_SAMPLES = 8


class StepModel(ABC):
    """Per-step decoding interface.

    encode() turns a source sentence into a fixed context; step() consumes
    one previous token and returns the new hidden state, the distribution
    over the vocabulary, and the recurrent state to carry forward.
    vocab_size() is the length of that distribution. step_batch() does the
    same for a batch of rows at once.
    """

    @abstractmethod
    def encode(self, source: Sentence) -> Any: ...

    @abstractmethod
    def initial_state(self) -> Any: ...

    @abstractmethod
    def step(
        self, context: Any, state: Any, prev_token: int
    ) -> tuple[np.ndarray, np.ndarray, Any]: ...

    @abstractmethod
    def hidden_dim(self) -> int: ...

    @abstractmethod
    def vocab_size(self) -> int: ...

    def step_batch(
        self, contexts: Sequence[Any], states: Sequence[Any], prev_tokens: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, Sequence[Any]]:
        """step() for each of B rows: the (B, d) hidden states, the (B, V)
        distributions and the B new states. This one calls step() a row at
        a time; a model may override it with one call over all the rows
        that gives each row the bits step() gives it."""
        stepped = [
            self.step(context, state, token)
            for context, state, token in zip(contexts, states, prev_tokens, strict=True)
        ]
        if not stepped:
            raise ValueError("step_batch needs at least one row")
        hidden, dists, new_states = zip(*stepped)
        return np.stack(hidden), np.stack(dists), list(new_states)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Over the last axis, so one row or a stack of rows."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class RefModelParams:
    E: np.ndarray  # (V, d_e) shared source/target embeddings
    W_c: np.ndarray  # (d, d_e)
    W_y: np.ndarray  # (d, d_e)
    W_h: np.ndarray  # (d, d)
    b: np.ndarray  # (d,)
    U: np.ndarray  # (V, d)
    b_o: np.ndarray  # (V,)

    @property
    def embed_dim(self) -> int:
        return self.E.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.E.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BASE_PARAM_NAMES}


def init_params(
    vocab_size: int, embed_dim: int = 32, hidden_dim: int = 64, seed: int = 0
) -> RefModelParams:
    """Uniform [-0.1, 0.1] init from a PCG64 stream; array creation order is
    fixed (E, W_c, W_y, W_h, b, U, b_o) so a seed pins every weight."""
    if embed_dim < 1 or hidden_dim < 1:
        raise ValueError(f"embed_dim and hidden_dim must be >= 1, got {embed_dim} and {hidden_dim}")
    rng = np.random.default_rng(seed)
    shapes = _param_shapes(vocab_size, embed_dim, hidden_dim)
    return RefModelParams(**{name: rng.uniform(-0.1, 0.1, size=shape) for name, shape in shapes.items()})


def _param_shapes(v: int, d_e: int, d: int) -> dict[str, tuple[int, ...]]:
    """Each base array's shape for vocabulary size v, embed dim d_e and
    hidden dim d, in BASE_PARAM_NAMES order: the order init_params draws
    them in and a checkpoint stores them in."""
    return {"E": (v, d_e), "W_c": (d, d_e), "W_y": (d, d_e), "W_h": (d, d), "b": (d,), "U": (v, d), "b_o": (v,)}


@dataclass
class AdapterParams:
    """Residual bottleneck: h + W_up @ relu(W_down @ h). W_up starts at zero
    so a fresh adapter is an exact identity."""

    W_down: np.ndarray  # (r, d)
    W_up: np.ndarray  # (d, r)

    @property
    def rank(self) -> int:
        return self.W_down.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {"A.W_down": self.W_down, "A.W_up": self.W_up}


def init_adapter(rank: int, hidden_dim: int, seed: int = 0) -> AdapterParams:
    rng = np.random.default_rng(seed)
    return AdapterParams(
        W_down=rng.uniform(-0.1, 0.1, size=(rank, hidden_dim)),
        W_up=np.zeros((hidden_dim, rank)),
    )


class RefModel(StepModel):
    def __init__(self, params: RefModelParams, adapter_rank: int = 8):
        if adapter_rank < 1:
            raise ValueError(f"adapter_rank must be >= 1, got {adapter_rank}")
        self.params = params
        self.adapter_rank = adapter_rank
        self.adapters: dict[str, AdapterParams] = {}
        self.active_adapter: str | None = None

    def hidden_dim(self) -> int:
        return self.params.hidden_dim

    def vocab_size(self) -> int:
        return self.params.vocab_size

    def add_adapter(self, tag: str, seed: int = 0) -> AdapterParams:
        if tag in self.adapters:
            raise ValueError(f"adapter {tag!r} already exists")
        adapter = init_adapter(self.adapter_rank, self.params.hidden_dim, seed)
        self.adapters[tag] = adapter
        return adapter

    def set_active_adapter(self, tag: str | None) -> None:
        if tag is not None and tag not in self.adapters:
            raise KeyError(f"no adapter {tag!r}; have {sorted(self.adapters)}")
        self.active_adapter = tag

    def _adapter(self) -> AdapterParams | None:
        return self.adapters[self.active_adapter] if self.active_adapter else None

    def encode(self, source: Sentence) -> np.ndarray:
        if not source.token_ids:
            raise ValueError("cannot encode an empty source")
        return self.params.E[list(source.token_ids)].mean(axis=0)

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.params.hidden_dim)

    def step(
        self, context: np.ndarray, state: np.ndarray, prev_token: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        p = self.params
        if context.shape != (p.embed_dim,):
            raise ValueError(f"context shape {context.shape}, want ({p.embed_dim},)")
        if state.shape != (p.hidden_dim,):
            raise ValueError(f"state shape {state.shape}, want ({p.hidden_dim},)")
        if not 0 <= prev_token < p.vocab_size:
            raise ValueError(f"token id {prev_token} outside vocabulary")
        _, _, h, dist = self._forward(context, state, prev_token)
        return h, dist, h

    def step_batch(
        self, contexts: Sequence[np.ndarray], states: Sequence[np.ndarray], prev_tokens: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All rows in one _forward call, with step()'s checks. The new
        states are the rows of the returned (B, d) hidden states."""
        p = self.params
        C = np.asarray(contexts)
        S = np.asarray(states)
        tokens = np.asarray(prev_tokens)
        if tokens.ndim != 1 or not len(tokens) or tokens.dtype.kind not in "iu":
            raise ValueError(
                f"prev_tokens must be B >= 1 integer token ids, got {tokens.dtype} of shape {tokens.shape}"
            )
        if C.shape != (len(tokens), p.embed_dim):
            raise ValueError(f"contexts shape {C.shape}, want ({len(tokens)}, {p.embed_dim})")
        if S.shape != (len(tokens), p.hidden_dim):
            raise ValueError(f"states shape {S.shape}, want ({len(tokens)}, {p.hidden_dim})")
        outside = (tokens < 0) | (tokens >= p.vocab_size)
        if outside.any():
            raise ValueError(f"token id {tokens[outside][0]} outside vocabulary")
        _, _, h, dist = self._forward(C, S, tokens)
        return h, dist, h

    def _forward(
        self, context: np.ndarray, state: np.ndarray, prev_token: int | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
        """The cell, unchecked: tanh(W_c c + W_y e + W_h s + b), then the
        active adapter, then the softmax. Returns the tanh output, the
        adapter's bottleneck input (None without an adapter), the hidden
        state and the next-token distribution. step, step_batch and
        training share it. One row or a (B, ...) stack of rows: np.matvec
        hands each row to the same BLAS gemv that W @ x calls, so a row
        gets the same bits either way (a gemm, X @ W.T, does not)."""
        p = self.params
        pre = np.tanh(
            np.matvec(p.W_c, context) + np.matvec(p.W_y, p.E[prev_token])
            + np.matvec(p.W_h, state) + p.b
        )
        adapter = self._adapter()
        if adapter is None:
            z, h = None, pre
        else:
            z = np.matvec(adapter.W_down, pre)
            h = pre + np.matvec(adapter.W_up, np.maximum(z, 0.0))
        return pre, z, h, softmax(np.matvec(p.U, h) + p.b_o)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 10
    batch_size: int = 8
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        # each float check is written so that NaN, which fails every
        # comparison, fails it too. lr 0 is allowed: one epoch at lr 0 must
        # leave params untouched
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.clip_norm < np.inf:
            raise ValueError(f"clip_norm must be finite and > 0, got {self.clip_norm}")


def _pair_grads(
    model: RefModel,
    pair_src: Sentence,
    pair_tgt: Sentence,
    names: Collection[str] | None = None,
) -> tuple[float, int, dict[str, np.ndarray]]:
    """Summed next-token NLL over the target (EOS appended) and its gradient
    with respect to the parameter arrays: every base array unless `names`
    names none of them, and the active adapter's arrays. A frozen base
    still carries the gradient back through the recurrent state, so the
    adapter's gradient has the same bits either way."""
    p = model.params
    adapter = model._adapter()
    base = names is None or not set(BASE_PARAM_NAMES).isdisjoint(names)
    context = model.encode(pair_src)
    targets = list(pair_tgt.token_ids) + [EOS_ID]
    prevs = [BOS_ID] + targets[:-1]

    states = [model.initial_state()]
    cells: list[tuple[np.ndarray, np.ndarray | None, np.ndarray]] = []  # (pre, z, dist)
    loss = 0.0
    for prev, tgt in zip(prevs, targets):
        pre, z, h, dist = model._forward(context, states[-1], prev)
        loss -= float(np.log(dist[tgt]))
        cells.append((pre, z, dist))
        states.append(h)

    arrays = dict(p.arrays()) if base else {}
    if adapter is not None:
        arrays.update(adapter.arrays())
    grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}

    d_context = np.zeros(p.embed_dim)
    d_state = np.zeros(p.hidden_dim)
    for t in range(len(targets) - 1, -1, -1):
        pre, z, d_logits = cells[t]  # the distribution is not needed again
        d_logits[targets[t]] -= 1.0
        if base:
            grads["U"] += d_logits[:, None] * states[t + 1]
            grads["b_o"] += d_logits
        dh = p.U.T @ d_logits + d_state
        if adapter is not None:
            relu_z = np.maximum(z, 0.0)
            grads["A.W_up"] += dh[:, None] * relu_z
            dz = (adapter.W_up.T @ dh) * (z > 0)
            grads["A.W_down"] += dz[:, None] * pre
            d_pre = dh + adapter.W_down.T @ dz
        else:
            d_pre = dh
        da = (1.0 - pre**2) * d_pre
        if base:
            grads["W_c"] += da[:, None] * context
            grads["W_y"] += da[:, None] * p.E[prevs[t]]
            grads["W_h"] += da[:, None] * states[t]
            grads["b"] += da
            grads["E"][prevs[t]] += p.W_y.T @ da
            d_context += p.W_c.T @ da
        d_state = p.W_h.T @ da

    if base:
        src_ids = list(pair_src.token_ids)
        for sid in src_ids:
            grads["E"][sid] += d_context / len(src_ids)
    return loss, len(targets), grads


def _trainable_arrays(model: RefModel, adapters_only: bool) -> dict[str, np.ndarray]:
    """The arrays training updates, in the order the clip norm sums them:
    the base's unless adapters_only, then the active adapter's."""
    if adapters_only and model.active_adapter is None:
        raise ValueError("adapters_only training needs an active adapter")
    arrays = {} if adapters_only else dict(model.params.arrays())
    if model.active_adapter is not None:
        arrays.update(model.adapters[model.active_adapter].arrays())
    return arrays


@dataclass
class TrainStats:
    """What a `train` run measured along the way, for its report. Passing
    one changes no parameter bit."""

    tokens: int = 0
    seconds: float = 0.0
    batches: int = 0
    clipped: int = 0  # batches whose gradient was clipped
    grad_norm_sum: float = 0.0  # of each batch's per-token norm before clipping
    grad_norm_max: float = 0.0

    def summary(self) -> dict[str, float]:
        return {
            "tokens_per_s": round(self.tokens / self.seconds, 1) if self.seconds > 0 else 0.0,
            "grad_norm_mean": self.grad_norm_sum / self.batches,
            "grad_norm_max": self.grad_norm_max,
            "clipped_fraction": self.clipped / self.batches,
        }


def train(
    model: RefModel,
    corpus: ParallelCorpus,
    cfg: TrainConfig,
    adapters_only: bool = False,
    stats: TrainStats | None = None,
) -> list[float]:
    """Minibatch SGD on mean next-token NLL; returns per-epoch mean loss.

    The config seed drives only the shuffle order, so a fixed seed makes the
    whole run bit-reproducible. With adapters_only every base array is left
    bit-identical and its gradient is never computed. A non-finite loss
    aborts immediately.
    """
    if len(corpus) == 0:
        raise ValueError("training corpus is empty")
    arrays = _trainable_arrays(model, adapters_only)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(corpus.pairs))
        epoch_loss = 0.0
        epoch_tokens = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            sums = {name: np.zeros_like(arr) for name, arr in arrays.items()}
            batch_loss = 0.0
            batch_tokens = 0
            for idx in batch:
                pair = corpus.pairs[idx]
                loss, n_tok, grads = _pair_grads(model, pair.source, pair.target, arrays)
                batch_loss += loss
                batch_tokens += n_tok
                for name in sums:
                    sums[name] += grads[name]
            if not np.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite loss {batch_loss} in epoch {epoch}, "
                    f"batch starting at {start}; aborting"
                )
            epoch_loss += batch_loss
            epoch_tokens += batch_tokens
            norm = float(
                np.sqrt(sum(float((g**2).sum()) for g in sums.values()))
            ) / batch_tokens
            scale = cfg.learning_rate / batch_tokens
            clipped = norm > cfg.clip_norm
            if clipped:
                scale *= cfg.clip_norm / norm
            if stats is not None:
                stats.batches += 1
                stats.clipped += clipped
                stats.grad_norm_sum += norm
                stats.grad_norm_max = max(stats.grad_norm_max, norm)
            for name, arr in arrays.items():
                arr -= scale * sums[name]
        losses.append(epoch_loss / epoch_tokens)
        if stats is not None:
            stats.tokens += epoch_tokens
    if stats is not None:
        stats.seconds += time.perf_counter() - t0
    return losses


def grad_check(
    model: RefModel,
    pair: SentencePair,
    seed: int = 0,
    grads: dict[str, np.ndarray] | None = None,
) -> float:
    """Max relative error between analytic gradients and central finite
    differences over GRAD_CHECK_SAMPLES sampled coordinates of every
    parameter array, each moved by +-GRAD_CHECK_EPSILON.

    Pass `grads` to check a supplied gradient (e.g. one with an injected
    fault) instead of the freshly computed one.
    """
    if grads is None:
        _, _, grads = _pair_grads(model, pair.source, pair.target)
    arrays = _trainable_arrays(model, False)

    def loss_of_current() -> float:
        loss, _, _ = _pair_grads(model, pair.source, pair.target)
        return loss

    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, arr in arrays.items():
        n = min(GRAD_CHECK_SAMPLES, arr.size)
        for flat_i in rng.choice(arr.size, size=n, replace=False):
            idx = np.unravel_index(flat_i, arr.shape)
            orig = arr[idx]
            arr[idx] = orig + GRAD_CHECK_EPSILON
            up = loss_of_current()
            arr[idx] = orig - GRAD_CHECK_EPSILON
            down = loss_of_current()
            arr[idx] = orig
            fd = (up - down) / (2.0 * GRAD_CHECK_EPSILON)
            analytic = float(grads[name][idx])
            err = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst


def base_param_checksum(model: RefModel) -> str:
    """Hex digest over the base arrays, for freeze verification."""
    digest = hashlib.sha256()
    for name in BASE_PARAM_NAMES:
        digest.update(np.ascontiguousarray(getattr(model.params, name)).tobytes())
    return digest.hexdigest()


def save_checkpoint(model: RefModel, path: str | Path) -> None:
    """Binary checkpoint: magic, version, dims, base arrays as little-endian
    float64 row-major, then tagged adapter blocks sorted by tag. Each array
    goes straight from memory to the file."""
    p = model.params
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack(
            "<5I", CHECKPOINT_VERSION, p.embed_dim, p.hidden_dim, p.vocab_size,
            model.adapter_rank,
        ))
        for name in BASE_PARAM_NAMES:
            fh.write(np.ascontiguousarray(getattr(p, name), dtype="<f8"))
        fh.write(struct.pack("<I", len(model.adapters)))
        for tag in sorted(model.adapters):
            adapter = model.adapters[tag]
            raw = tag.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)) + raw)
            fh.write(np.ascontiguousarray(adapter.W_down, dtype="<f8"))
            fh.write(np.ascontiguousarray(adapter.W_up, dtype="<f8"))


def load_checkpoint(path: str | Path) -> RefModel:
    with open(path, "rb") as fh:
        if read_bytes(fh, 4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint")
        version, d_e, d, v, rank = struct.unpack("<5I", read_bytes(fh, 20))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if rank < 1:
            raise ValueError(f"{path}: adapter_rank must be >= 1, got {rank}")
        if d_e < 1 or d < 1:
            raise ValueError(f"{path}: embed_dim and hidden_dim must be >= 1, got {d_e} and {d}")

        def take(*shape: int) -> np.ndarray:
            arr = read_array(fh, "<f8", shape)
            check_finite(arr, f"{path}: checkpoint weights")  # else decoding scores NaN
            return arr

        def take_u32() -> int:
            return struct.unpack("<I", read_bytes(fh, 4))[0]

        params = RefModelParams(**{name: take(*shape) for name, shape in _param_shapes(v, d_e, d).items()})
        model = RefModel(params, adapter_rank=rank)
        for _ in range(take_u32()):
            raw = read_bytes(fh, take_u32())
            try:
                tag = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(f"{path}: adapter tag {raw!r} is not UTF-8") from None
            if tag in model.adapters:
                raise ValueError(f"{path}: adapter {tag!r} is listed twice")
            model.adapters[tag] = AdapterParams(W_down=take(rank, d), W_up=take(d, rank))
        check_file_size(fh, fh.tell())
    return model
