"""Cross-modal retrieval: music and motion encoders into one unit-norm
256-dim space, trained with symmetric InfoNCE plus a motion reconstruction
decoder.  Frozen encoders later serve as alignment supervision for the token
generator and as the basis of the matching-score metric.

Two variants exist: "body" encodes the 263 body channels, "whole" the full
723-channel frames.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from . import nn
from .errors import (
    PairingError,
    ParameterError,
    ShapeError,
    TooShortError,
    TrainingFailureError,
    VariantError,
    check_minimums,
    check_same_length,
    read_config,
)
from .motion import FRAME_WIDTH, MotionSequence, default_spans
from .nn import Tensor
from .nn.rng import generator
from .synth import MusicTrack, TRACK_FEATURE_DIM

VARIANT_WIDTHS = {"body": 263, "whole": FRAME_WIDTH}
# bytes of latents each model's memo keeps; the least recently used go first
_MEMO_BYTES = 8 << 20
# bytes per piece of the memo's content digests: big enough that the pool's
# cost per piece is small, small enough that one clip spreads over the CPUs
_PIECE_BYTES = 1 << 20
# share of training steps before negative filtering starts
FILTER_WARMUP_FRAC = 0.5


@dataclass
class RetrievalConfig:
    variant: str = "whole"
    latent_dim: int = 256
    temperature: float = 0.1
    lambda_nce: float = 0.1
    negative_threshold: float = 0.8
    hidden: int = 64
    decoder_layers: int = 4
    heads: int = 4
    steps: int = 300
    batch: int = 128            # per the retrieval training protocol
    crop_frames: int = 0
    lr: float = 1e-4
    warmup_steps: int = 50
    seed: int = 0

    RETIRED = {"filter_warmup_frac": FILTER_WARMUP_FRAC}

    def __post_init__(self):
        if self.variant not in VARIANT_WIDTHS:
            raise ParameterError(f"unknown variant {self.variant!r}")
        check_minimums(self, batch=1)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_music_width(feats) -> None:
    """ShapeError unless the rows of `feats` are TRACK_FEATURE_DIM wide."""
    if np.shape(feats)[-1] != TRACK_FEATURE_DIM:
        raise ShapeError(f"music features are {np.shape(feats)[-1]} wide, "
                         f"the encoder takes {TRACK_FEATURE_DIM}")


class _SeqEncoder(nn.Module):
    """Strided temporal convs, mean pool, projection to the sphere.

    The pooled features carry a large clip-independent component (gelu
    activations have positive mean), which after unit-normalization would
    start every latent in one tight cluster, a saddle for the contrastive
    loss.  A fixed pool-center measured on the training set is subtracted
    before projection so latents start spread out.
    """

    MIN_STEPS = 4  # the two stride-2 convs leave one step to pool from 4

    def __init__(self, c_in: int, hidden: int, out_dim: int, rng):
        super().__init__()
        self.conv0 = nn.Conv1d(c_in, hidden, 3, rng, padding=1)
        self.down1 = nn.Conv1d(hidden, hidden, 4, rng, stride=2, padding=1)
        self.down2 = nn.Conv1d(hidden, hidden, 4, rng, stride=2, padding=1)
        self.conv1 = nn.Conv1d(hidden, hidden, 3, rng, padding=1)
        self.proj = nn.Linear(hidden, out_dim, rng)
        self.pool_center = np.zeros(hidden)

    def pooled(self, x: Tensor) -> Tensor:
        if x.shape[2] < self.MIN_STEPS:
            raise TooShortError(f"a clip of {x.shape[2]} steps is too short to encode; "
                                f"the encoders need at least {self.MIN_STEPS}")
        h = self.conv0(x).gelu()
        h = self.down1(h).gelu()
        h = self.down2(h).gelu()
        h = self.conv1(h).gelu()
        return h.mean(axis=2)

    def __call__(self, x: Tensor) -> Tensor:
        z = self.proj(self.pooled(x) - Tensor(self.pool_center[None, :]))
        norm = ((z * z).sum(axis=-1, keepdims=True) + 1e-12).sqrt()
        return z / norm


class _MotionDecoder(nn.Module):
    """Transformer over token-rate queries conditioned on concat(z, c); it
    reconstructs clips of up to MAX_TOKENS tokens."""

    MAX_TOKENS = 256

    def __init__(self, d_motion: int, latent_dim: int, width: int, layers: int,
                 heads: int, rng):
        super().__init__()
        self.d_motion = d_motion
        self.cond = nn.Linear(2 * latent_dim, width, rng)
        self.pos = nn.Embedding(self.MAX_TOKENS, width, rng, scale=0.05)
        self.blocks = [nn.TransformerBlock(width, heads, rng) for _ in range(layers)]
        self.head = nn.Linear(width, 4 * d_motion, rng)
        self.head.weight.data[:] = 0.0  # reconstruction starts at zero, so the
        # early loss cannot swamp the contrastive term

    def __call__(self, z: Tensor, c: Tensor, n_frames: int) -> Tensor:
        n = n_frames // 4
        B = z.shape[0]
        cond = self.cond(nn.concat([z, c], axis=-1))  # (B, width)
        pos = self.pos(np.tile(np.arange(n), (B, 1)))  # (B, n, width)
        h = pos + cond.reshape(B, 1, -1)
        for block in self.blocks:
            h = block(h)
        out = self.head(h)  # (B, n, 4*D)
        return out.reshape(B, n_frames, self.d_motion)


class DualEncoder(nn.Module):
    def __init__(self, config: RetrievalConfig):
        super().__init__()
        self.config = config
        self.motion_width = VARIANT_WIDTHS[config.variant]
        rng = generator(config.seed, "retrieval-init")
        self.motion_enc = _SeqEncoder(self.motion_width, config.hidden, config.latent_dim, rng)
        self.music_enc = _SeqEncoder(TRACK_FEATURE_DIM, config.hidden, config.latent_dim, rng)
        self.decoder = _MotionDecoder(self.motion_width, config.latent_dim, config.hidden,
                                      config.decoder_layers, config.heads, rng)
        self.motion_mean = np.zeros(self.motion_width)
        self.motion_std = np.ones(self.motion_width)
        self.music_mean = np.zeros(TRACK_FEATURE_DIM)
        self.music_std = np.ones(TRACK_FEATURE_DIM)
        self._memo: OrderedDict = OrderedDict()  # see _memo_encode; never saved
        self._memo_nbytes = 0

    def set_normalizers(self, motions: np.ndarray, feats: np.ndarray) -> None:
        self.motion_mean, self.motion_std = nn.channel_stats(motions)
        self.music_mean, self.music_std = nn.channel_stats(feats)

    @nn.no_grad()
    def set_pool_centers(self, motion_batch: np.ndarray, feat_batch: np.ndarray) -> None:
        """Measure the mean pooled features of training clips (constants)."""
        x = (self.motion_slice(motion_batch) - self.motion_mean) / self.motion_std
        pooled = self.motion_enc.pooled(Tensor(x.transpose(0, 2, 1))).data
        self.motion_enc.pool_center = pooled.mean(axis=0)
        x = (feat_batch - self.music_mean) / self.music_std
        pooled = self.music_enc.pooled(Tensor(x.transpose(0, 2, 1))).data
        self.music_enc.pool_center = pooled.mean(axis=0)

    def motion_slice(self, frames: np.ndarray | Tensor) -> np.ndarray | Tensor:
        """Full 723-wide frames -> this variant's channel slice."""
        if frames.shape[-1] == self.motion_width:
            return frames
        if frames.shape[-1] == FRAME_WIDTH and self.config.variant == "body":
            return frames[..., default_spans().indices("body")]
        raise VariantError(
            f"motion width {frames.shape[-1]} does not fit variant {self.config.variant!r}"
        )

    def encode_motion_batch(self, frames: np.ndarray | Tensor) -> Tensor:
        """(B, T, D) frames -> (B, latent_dim) latents; gradient reaches a
        Tensor input, as the generator's alignment losses need."""
        x = self.motion_slice(frames)
        if not isinstance(x, Tensor):
            x = Tensor(x)
        x = (x - self.motion_mean) / self.motion_std
        return self.motion_enc(x.transpose(0, 2, 1))

    def encode_music_batch(self, feats: np.ndarray) -> Tensor:
        _check_music_width(feats)
        x = (feats - self.music_mean) / self.music_std
        return self.music_enc(Tensor(x.transpose(0, 2, 1)))

    def buffers(self) -> dict[str, tuple[object, str]]:
        out = {}
        for side, enc in (("motion", self.motion_enc), ("music", self.music_enc)):
            out[f"norm.{side}_mean"] = (self, f"{side}_mean")
            out[f"norm.{side}_std"] = (self, f"{side}_std")
            out[f"norm.{side}_pool_center"] = (enc, "pool_center")
        return out


# -- public operations ---------------------------------------------------------


def _new_hash_pool() -> None:
    """One hashing worker per CPU the process may use.  The executor starts
    its threads on first use, so importing starts none; a forked child has
    none of its parent's threads and gets a new pool."""
    global _hash_pool
    _hash_pool = ThreadPoolExecutor(len(os.sched_getaffinity(0)))


_new_hash_pool()
os.register_at_fork(after_in_child=_new_hash_pool)


def _piece_digests(buffers: list[np.ndarray]) -> list[list[bytes]]:
    """The sha256 of each _PIECE_BYTES piece of each C-contiguous buffer, in
    order.  The pieces are memoryview slices, so nothing is copied, and they
    hash in one map on the process-wide `_hash_pool`; hashlib releases the
    GIL for buffers over 2 KiB, so they hash in parallel.  No numerics run
    there, and the digests do not depend on the worker count.  Buffers of
    at most one piece in all hash on the calling thread, where the pool's
    hand-off would cost more than it saves."""
    views = [memoryview(b.reshape(-1).view(np.uint8)) for b in buffers]
    starts = [range(0, len(v), _PIECE_BYTES) for v in views]
    pieces = [v[i:i + _PIECE_BYTES] for v, r in zip(views, starts) for i in r]
    run = _hash_pool.map if sum(map(len, views)) > _PIECE_BYTES else map
    digests = iter(run(lambda piece: hashlib.sha256(piece).digest(), pieces))
    return [[next(digests) for _ in r] for r in starts]


def _memo_encode(model: DualEncoder, side: str, batches: list) -> list[np.ndarray]:
    """`encode_<side>_many(model, x)` for each batch x, computed once per
    model state and input content.

    The key covers all the side's output depends on: the encoder's parameters
    and pool centre, the side's mean and std, the variant, and the input's
    shape and float64 bytes.  Those bytes are hashed as sha256 over fixed
    _PIECE_BYTES pieces, all of one call together on the CPUs the process may
    use (`_piece_digests`); a key is (state digest, input shape, sha256 of the
    input's piece digests), the same bits whatever the pool's size.  An
    in-place edit of a clip or a weight, `load_state` or `set_normalizers`
    therefore misses instead of returning a stale latent.  The memo lives on
    the model and keeps at most _MEMO_BYTES of results.  They are handed out
    as copies, so callers may write into them.
    """
    enc, mean, std, encode = (
        (model.motion_enc, model.motion_mean, model.motion_std, encode_motion_many)
        if side == "motion" else
        (model.music_enc, model.music_mean, model.music_std, encode_music_many))
    state = [np.ascontiguousarray(a, dtype=np.float64)
             for a in [p.data for p in enc.parameters()] + [enc.pool_center, mean, std]]
    inputs = [np.ascontiguousarray(x, dtype=np.float64) for x in batches]
    digests = _piece_digests(state + inputs)
    h = hashlib.sha256(f"{side}:{model.config.variant}".encode())
    for a, pieces in zip(state, digests):
        h.update(repr(a.shape).encode())
        h.update(b"".join(pieces))
    state_key = h.digest()
    memo, out = model._memo, []
    for x, x64, pieces in zip(batches, inputs, digests[len(state):]):
        key = (state_key, x64.shape, hashlib.sha256(b"".join(pieces)).digest())
        z = memo.get(key)
        if z is None:
            z = memo[key] = encode(model, x)
            model._memo_nbytes += z.nbytes
            while model._memo_nbytes > _MEMO_BYTES:
                model._memo_nbytes -= memo.popitem(last=False)[1].nbytes
        else:
            memo.move_to_end(key)
        out.append(z.copy())
    return out


def encode_motion(model: DualEncoder, seq: MotionSequence | np.ndarray) -> np.ndarray:
    frames = seq.data if isinstance(seq, MotionSequence) else np.asarray(seq)
    return _memo_encode(model, "motion", [frames[None]])[0][0]


@nn.no_grad()
def encode_motion_many(model: DualEncoder, frames: np.ndarray) -> np.ndarray:
    return model.encode_motion_batch(frames).data


def encode_music(model: DualEncoder, track: MusicTrack | np.ndarray) -> np.ndarray:
    feats = track.features if isinstance(track, MusicTrack) else np.asarray(track)
    return _memo_encode(model, "music", [feats[None]])[0][0]


@nn.no_grad()
def encode_music_many(model: DualEncoder, feats: np.ndarray) -> np.ndarray:
    return model.encode_music_batch(feats).data


def segment_latents(model: DualEncoder, item, seconds: float = 1.0) -> np.ndarray:
    """Latents of non-overlapping 1-second windows, (T_segments, 256)."""
    if isinstance(item, MotionSequence):
        frames, rate, side = item.data, item.fps, "motion"
    elif isinstance(item, MusicTrack):
        frames, rate, side = item.features, item.feature_rate, "music"
    else:
        raise ParameterError("segment_latents expects a MotionSequence or MusicTrack")
    win = int(round(seconds * rate))
    if win < 1:
        raise ParameterError(f"seconds={seconds} is less than one frame at {rate} per second")
    count = frames.shape[0] // win
    if count < 1:
        raise ParameterError("clip shorter than one segment")
    segs = np.stack([frames[i * win:(i + 1) * win] for i in range(count)])
    return _memo_encode(model, side, [segs])[0]


def info_nce(S, keep_mask: np.ndarray | None = None) -> Tensor:
    """Symmetric InfoNCE over a similarity matrix (temperature already applied).

    keep_mask marks which entries may serve as negatives (diagonal positives
    are always kept); None keeps everything.  Stabilized with detached row or
    column maxima, so the value is exact for any scale of S.
    """
    t = S if isinstance(S, Tensor) else Tensor(np.asarray(S, dtype=np.float64))
    n, m = t.shape
    if n != m:
        raise ShapeError(f"similarity matrix must be square, got {t.shape}")
    if not np.all(np.isfinite(t.data)):
        raise ShapeError("similarity matrix must be finite")
    if keep_mask is None:
        pen_rows = pen_cols = None
    else:
        keep = np.asarray(keep_mask, dtype=bool).copy()
        np.fill_diagonal(keep, True)
        pen_rows = Tensor(np.where(keep, 0.0, -np.inf))
        pen_cols = Tensor(np.where(keep.T, 0.0, -np.inf))
    diag = nn.gather_last(t, np.arange(n))

    def direction(mat: Tensor, penalty) -> Tensor:
        masked = mat if penalty is None else mat + penalty
        shift = Tensor(np.max(masked.data, axis=1, keepdims=True))
        logz = (masked - shift).exp().sum(axis=1, keepdims=True).log() + shift
        return (diag - logz.reshape(n)).mean()

    rows = direction(t, pen_rows)
    cols = direction(t.transpose(1, 0), pen_cols)
    return (rows + cols) * -0.5


def false_negative_mask(motion_latents: np.ndarray, music_latents: np.ndarray,
                        threshold: float = 0.8) -> np.ndarray:
    """Negatives to keep: drop pair (i, j) when either modality's latents for
    i and j are closer than the threshold (the pair is likely a false
    negative)."""
    zm = np.asarray(motion_latents)
    cm = np.asarray(music_latents)
    sim = np.maximum(zm @ zm.T, cm @ cm.T)
    keep = sim <= threshold
    np.fill_diagonal(keep, True)
    return keep


def similarity_matrix(z: Tensor, c: Tensor, temperature: float) -> Tensor:
    return (z @ c.transpose(1, 0)) * (1.0 / temperature)


# -- training ---------------------------------------------------------------------


def train_retrieval(motions: np.ndarray | list, features: np.ndarray | list,
                    config: RetrievalConfig, log: list | None = None) -> DualEncoder:
    """Fit the dual encoder on paired (motion frames, music features)."""
    motions = list(motions)
    features = list(features)
    if len(motions) != len(features) or not motions:
        raise ParameterError("need equal nonempty motion and feature lists")
    check_same_length("motion clips", motions)
    check_same_length("feature clips", features)
    for feats in features:
        _check_music_width(feats)
    model = DualEncoder(config)
    model.set_normalizers(
        np.concatenate([model.motion_slice(m) for m in motions], axis=0),
        np.concatenate(features, axis=0),
    )
    center_count = min(len(motions), 64)
    model.set_pool_centers(np.stack(motions[:center_count]), np.stack(features[:center_count]))
    opt = nn.AdamW(model.parameters(), lr=config.lr)
    batch_rng = generator(config.seed, "retrieval-batches")
    n = len(motions)
    batch_size = min(config.batch, n)
    motions = np.stack([model.motion_slice(m) for m in motions])
    features = np.stack(features)
    clip = motions.shape[1]
    crop = config.crop_frames if 0 < config.crop_frames < clip else clip

    for step in range(config.steps):
        idx = batch_rng.choice(n, size=batch_size, replace=False)
        if crop < clip:  # gather only the crop, not the whole clips
            start = int(batch_rng.integers(0, clip - crop + 1))
            row = int(round(start * features.shape[1] / clip))
            mot = motions[idx, start:start + crop]
            feat = features[idx, row:row + crop]
        else:
            mot = motions[idx]
            feat = features[idx]
        z = model.encode_motion_batch(mot)
        c = model.encode_music_batch(feat)
        S = similarity_matrix(z, c, config.temperature)
        # fresh encoders put every latent in one tight cluster, so the
        # false-negative filter would mask all negatives; hold it back until
        # the space has spread out
        if step >= FILTER_WARMUP_FRAC * config.steps:
            keep = false_negative_mask(z.data, c.data, config.negative_threshold)
        else:
            keep = None
        nce = info_nce(S, keep)
        rec = model.decoder(z, c, mot.shape[1] - mot.shape[1] % 4)
        target = (mot[:, :rec.shape[1]] - model.motion_mean) / model.motion_std
        rec_loss = ((rec - Tensor(target)) ** 2.0).mean()
        total = rec_loss + config.lambda_nce * nce
        if not np.isfinite(total.data):
            raise TrainingFailureError("retrieval loss diverged", step)
        model.zero_grad()
        total.backward()
        opt.step(lr=nn.warmup_lr(step, config.lr, config.warmup_steps))
        if log is not None:
            log.append({"step": step, "total": float(total.data),
                        "nce": float(nce.data), "recon": float(rec_loss.data)})
    return model


# -- retrieval evaluation ------------------------------------------------------------


def rank_by_cosine(query: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Indices of gallery rows by descending cosine similarity to the query."""
    sims = gallery @ query
    return np.argsort(-sims, kind="stable")


def retrieve(model: DualEncoder, query_track: MusicTrack, gallery: list, k: int):
    """Top-k gallery motions for a music query; returns (indices, similarities).

    Gallery items may be MotionSequence objects, (T, D) frame arrays, or
    already-encoded latent vectors.
    """
    if not gallery:
        raise ParameterError("gallery is empty")
    if not 1 <= k <= len(gallery):
        raise ParameterError(f"k={k} must lie in 1..{len(gallery)}, the gallery size")
    latents, pending, batches = [None] * len(gallery), [], []
    for i, g in enumerate(gallery):
        frames = g.data if isinstance(g, MotionSequence) else np.asarray(g)
        if frames.ndim == 2:
            pending.append(i)
            batches.append(frames[None])
        elif frames.shape == (model.config.latent_dim,):
            latents[i] = frames
        else:
            raise ShapeError(f"gallery item {i} has shape {frames.shape}: expected (T, D) "
                             f"frames or a ({model.config.latent_dim},) latent")
    for i, z in zip(pending, _memo_encode(model, "motion", batches)):
        latents[i] = z[0]
    c = encode_music(model, query_track)
    latents = np.stack(latents)
    order = rank_by_cosine(c, latents)[:k]
    return order, latents[order] @ c


def recall_at_k(ranks: np.ndarray, k: int) -> float:
    """ranks are 1-based ranks of the true pair per query."""
    return float(np.mean(ranks <= k))


def median_rank(ranks: np.ndarray) -> float:
    return float(np.median(ranks))


def retrieval_ranks(model: DualEncoder, motions: list, tracks: list,
                    direction: str = "music->motion") -> np.ndarray:
    """1-based rank of each query's true pair over the full gallery."""
    if len(motions) != len(tracks):
        raise PairingError(f"{len(motions)} motions do not pair with {len(tracks)} tracks")
    z = np.stack([encode_motion(model, m) for m in motions])
    c = np.stack([encode_music(model, t) for t in tracks])
    sims = c @ z.T if direction == "music->motion" else z @ c.T
    n = sims.shape[0]
    ranks = np.empty(n, dtype=np.int64)
    for i in range(n):
        order = np.argsort(-sims[i], kind="stable")
        ranks[i] = int(np.where(order == i)[0][0]) + 1
    return ranks


# -- checkpoints ------------------------------------------------------------------


def save_retrieval(path, model: DualEncoder) -> None:
    from .io import save_checkpoint

    save_checkpoint(path, "retrieval", model.config.to_dict(), model.config.seed, model.state())


def load_retrieval(path) -> DualEncoder:
    from .io import load_checkpoint

    kind, config, _seed, arrays = load_checkpoint(path)
    if kind != "retrieval":
        raise ParameterError(f"{path}: expected a retrieval checkpoint, got {kind!r}")
    model = DualEncoder(read_config(RetrievalConfig, "retrieval", config))
    model.load_state(arrays)
    return model
