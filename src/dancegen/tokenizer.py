"""Motion tokenizer: per-part temporal encoders, stacked residual quantizers
and a phase-resolved linear decoder.

Each part (body, hands, face) has its own encoder and residual stack of
layers+1 codebooks; layers=0 is plain single-layer quantization.  The
decoder maps the concatenated per-part code sums linearly to the frames of
each token stride and is fit in closed form, never by gradient.

The parts are quantized independently, as in MoMask (Guo et al., CVPR
2024).  The paper's body->hands->face chain, where learned maps fed each
layer's quantized body vector into the hand stack and the hand vector into
the face stack, was removed.  Trained at full rate on the codebook-budget
corpus it decoded no better with all 6 layers (median test MPJPE 31.53 and
31.80 mm at seeds 202 and 203, against 31.48 and 31.30 mm for plain stacks),
far worse from a 1-layer prefix (96.26 and 157.10 mm, against 31.54 and
31.42 mm) and trained 1.6x slower.

Training takes hard nearest-code choices with straight-through gradients to
the encoders.  Codebooks follow exponential moving averages of their
assigned latents with a dead-code reset at epoch boundaries, and with
probability `dropout_q` a random suffix of layers is disabled for the step
so that every prefix of the stack remains a usable decode path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .errors import (
    InvalidTokenError,
    NumericInputError,
    ParameterError,
    TooShortError,
    TrainingFailureError,
    check_minimums,
    read_config,
)
from .motion import FRAME_WIDTH, MotionSequence, default_spans
from .nn import Tensor
from .nn.rng import generator

DOWNSCALE = 4  # two stride-2 stages
EMA_DECAY = 0.99  # codebook moving-average decay


@dataclass
class TokenizerConfig:
    codebook_size: int = 512
    code_dim: int = 512
    layers: int = 5                  # residual layers; layers+1 quantizers total
    hidden: int = 128
    dropout_q: float = 0.2
    alpha: float = 0.02              # body commitment weight
    beta: float = 0.02               # hands
    gamma: float = 0.02              # face
    steps: int = 300
    batch: int = 256
    crop_frames: int = 0             # 0 trains on full sequences
    lr: float = 1e-3
    enc_lr_scale: float = 0.2        # encoders move slower than the base lr
    refit_every: int = 25            # closed-form bypass refits (0 disables)
    anchor_seqs: int = 32            # sequences used for refits
    final_passes: int = 2            # EMA-only epochs before the last refit
    final_seqs: int = 128            # cap on sequences per finalization epoch
    warmup_steps: int = 100
    seed: int = 0

    # removed fields and the one value each may still hold in a saved config
    # (None: any value); the model runs exactly that behaviour
    RETIRED = {"estimator": "st", "latent_norm": "rms", "dec_lr_scale": 0.0,
               "gumbel_start": None, "gumbel_end": None, "ema_decay": EMA_DECAY,
               "conditioning": None, "mixer_lr_scale": 0.0}

    def __post_init__(self):
        check_minimums(self, codebook_size=1, code_dim=1, layers=0, hidden=1, batch=1,
                       crop_frames=0)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TokenGrid:
    """Token indices shaped (layers+1, parts=3, timesteps)."""

    indices: np.ndarray
    n_frames: int
    fps: int = 30

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indices.ndim != 3 or self.indices.shape[1] != 3:
            raise ParameterError(f"token grid must be (layers, 3, n), got {self.indices.shape}")

    @property
    def n(self) -> int:
        return self.indices.shape[2]

    @property
    def layer_count(self) -> int:
        return self.indices.shape[0]


class Codebook:
    """K code vectors maintained by EMA over assigned latents."""

    def __init__(self, size: int, dim: int):
        self.codes = np.zeros((size, dim))
        self.ema_count = np.zeros(size)
        self.ema_sum = np.zeros((size, dim))
        self.usage = np.zeros(size, dtype=np.int64)

    @property
    def size(self) -> int:
        return self.codes.shape[0]

    def init_from(self, latents: np.ndarray, rng: np.random.Generator) -> None:
        k, d = self.codes.shape
        pool = latents
        if pool.shape[0] < k:
            reps = -(-k // pool.shape[0])
            pool = np.tile(pool, (reps, 1)) + 0.01 * rng.normal(size=(reps * pool.shape[0], d))
        pick = rng.permutation(pool.shape[0])[:k]
        self.codes = pool[pick].copy()
        self.ema_count = np.full(k, 0.1)
        self.ema_sum = self.codes * self.ema_count[:, None]

    def assign(self, latents: np.ndarray) -> np.ndarray:
        """Nearest-code index per row (expanded-form distances, fast path)."""
        d2 = (
            (latents * latents).sum(axis=1, keepdims=True)
            - 2.0 * latents @ self.codes.T
            + (self.codes * self.codes).sum(axis=1)[None, :]
        )
        return np.argmin(d2, axis=1)

    def ema_update(self, latents: np.ndarray, idx: np.ndarray, decay: float) -> None:
        k = self.size
        counts = np.bincount(idx, minlength=k).astype(np.float64)
        sums = np.zeros_like(self.ema_sum)
        np.add.at(sums, idx, latents)
        self.ema_count = decay * self.ema_count + (1 - decay) * counts
        self.ema_sum = decay * self.ema_sum + (1 - decay) * sums
        alive = self.ema_count > 0
        self.codes[alive] = self.ema_sum[alive] / self.ema_count[alive, None]
        self.usage += np.bincount(idx, minlength=k)

    def reset_dead(self, latents: np.ndarray, rng: np.random.Generator) -> int:
        """Reinitialize codes unused since the last reset; returns how many."""
        dead = np.flatnonzero(self.usage == 0)
        if dead.size and latents.shape[0]:
            pick = rng.integers(0, latents.shape[0], size=dead.size)
            self.codes[dead] = latents[pick]
            self.ema_count[dead] = 0.1
            self.ema_sum[dead] = self.codes[dead] * 0.1
        self.usage[:] = 0
        return int(dead.size)


def quantize_vector(codebook: Codebook, v: np.ndarray) -> tuple[int, np.ndarray]:
    """Exact nearest code: argmin over full Euclidean distances, first index wins ties."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NumericInputError("query vector contains NaN or inf")
    d2 = ((codebook.codes - v[None, :]) ** 2).sum(axis=1)
    idx = int(np.argmin(d2))
    return idx, codebook.codes[idx].copy()


class _Encoder(nn.Module):
    """Two stride-2 stages with residual blocks plus a strided linear bypass.

    Each output timestep is divided by its own RMS.  That anchors the latent
    scale, so the EMA codebooks and the straight-through loop cannot drift
    apart, at the price of entangling additive motion content nonlinearly.
    """

    def __init__(self, c_in: int, hidden: int, d: int, rng):
        super().__init__()
        self.conv0 = nn.Conv1d(c_in, hidden, 3, rng, padding=1)
        self.down1 = nn.Conv1d(hidden, hidden, 4, rng, stride=2, padding=1)
        self.res1 = nn.ResConv1d(hidden, rng)
        self.down2 = nn.Conv1d(hidden, hidden, 4, rng, stride=2, padding=1)
        self.res2 = nn.ResConv1d(hidden, rng)
        self.head = nn.Conv1d(hidden, d, 3, rng, padding=1)
        self.skip = nn.Conv1d(c_in, d, 4, rng, stride=4)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.conv0(x).gelu()
        h = self.res1(self.down1(h).gelu())
        h = self.res2(self.down2(h).gelu())
        out = self.head(h) + self.skip(x)
        rms = ((out * out).mean(axis=1, keepdims=True) + 1e-6).sqrt()
        return out / rms


class _Decoder(nn.Module):
    """Phase-resolved linear readout from code sums to frames.

    Each code-sum vector maps to all four frames of its token stride at once
    (a stride-4 transposed convolution written as a 1x1 conv with 4x output
    channels), so the least-squares decode is reachable in closed form;
    `refit_decoder_bypass` is the only thing that trains it.
    """

    def __init__(self, d: int, c_out: int, rng):
        super().__init__()
        self.c_out = c_out
        self.skip = nn.Conv1d(3 * d, DOWNSCALE * c_out, 1, rng)
        self.skip.weight.data *= 0.1

    def __call__(self, x: Tensor) -> Tensor:
        B, _, n = x.shape
        lin = self.skip(x).reshape(B, DOWNSCALE, self.c_out, n)
        return lin.transpose(0, 2, 3, 1).reshape(B, self.c_out, DOWNSCALE * n)


PARTS = ("body", "hand", "face")


class MotionTokenizer(nn.Module):
    def __init__(self, config: TokenizerConfig):
        super().__init__()
        self.config = config
        self.spans = default_spans()
        rng = generator(config.seed, "tokenizer-init")
        d, hid = config.code_dim, config.hidden
        widths = {p: self.spans.indices(p).size for p in PARTS}
        self.encoders = [_Encoder(widths[p], hid, d, rng) for p in PARTS]
        self.decoder = _Decoder(d, FRAME_WIDTH, rng)
        self.codebooks = {p: [Codebook(config.codebook_size, d) for _ in range(config.layers + 1)]
                          for p in PARTS}
        # channel statistics of the training corpus; identity until fitted
        self.norm_mean = np.zeros(FRAME_WIDTH)
        self.norm_std = np.ones(FRAME_WIDTH)

    # -- helpers ----------------------------------------------------------

    def normalize(self, frames: np.ndarray) -> np.ndarray:
        return (frames - self.norm_mean) / self.norm_std

    def set_normalizer(self, frames: np.ndarray) -> None:
        self.norm_mean, self.norm_std = nn.channel_stats(frames)

    def part_slices(self, batch: np.ndarray) -> dict[str, np.ndarray]:
        """(B, T, 723) normalized -> per-part (B, C_part, T)."""
        return {p: batch[:, :, self.spans.indices(p)].transpose(0, 2, 1) for p in PARTS}

    def encode_latents(self, batch: np.ndarray) -> dict[str, Tensor]:
        """Per-part encoder outputs (B, d, n); T must be a multiple of 4."""
        parts = self.part_slices(self.normalize(batch))
        return {p: enc(Tensor(parts[p])) for p, enc in zip(PARTS, self.encoders)}

    # -- quantizer ladders --------------------------------------------------

    def ladder(self, latents: dict[str, Tensor], active_layers: int | None = None,
               soft_tau: float | None = None):
        """Run the residual stacks.

        With soft_tau=None the code choice is hard, the commitment residuals
        subtract detached codes and each part feeds the decoder one
        stack-level straight-through estimator (identity gradient to the
        encoder).  With a temperature the code choice becomes a softmax
        mixture over the codebook, which makes the whole ladder
        differentiable end to end.

        Returns per part: token indices, quantizer inputs as (B*n, d) rows
        (for EMA updates), the initial residual tensor, per-layer code
        values, per-layer commitment residual tensors, the summed decoder
        input tensor and the final residual.
        """
        v1 = self.config.layers + 1 if active_layers is None else active_layers
        hard = soft_tau is None
        out = {}
        for part in PARTS:
            initial = r = latents[part]
            indices, q_inputs, code_values, code_tensors, commit_residuals = [], [], [], [], []
            for v in range(v1):
                idx, rows, code = self._quantize(part, v, r, soft_tau)
                indices.append(idx)
                q_inputs.append(rows)
                commit_residuals.append(r)
                code_values.append(code.data)
                code_tensors.append(code)
                r = r - (Tensor(code.data) if hard else code)
            if hard:
                stack = initial + Tensor(np.sum(code_values, axis=0) - initial.data)
            else:
                stack = _sum_tensors(code_tensors)
            out[part] = {
                "indices": indices,
                "q_inputs": q_inputs,
                "initial": initial,
                "code_values": code_values,
                "commit_residuals": commit_residuals,
                "stack": stack,
                "final_residual": r,
            }
        return out

    def _quantize(self, part, v, q_in: Tensor, soft_tau):
        """One codebook lookup; returns (indices (B, n), the (B*n, d) rows
        it looked up, code Tensor (B, d, n))."""
        B, d, n = q_in.shape
        flat = q_in.transpose(0, 2, 1).reshape(B * n, d)
        cb = self.codebooks[part][v]
        idx = cb.assign(flat.data)
        if soft_tau is None:
            code = Tensor(cb.codes[idx])
        else:
            codes = Tensor(cb.codes)
            d2 = (
                (flat * flat).sum(axis=1, keepdims=True)
                - 2.0 * (flat @ codes.transpose(1, 0))
                + Tensor((cb.codes * cb.codes).sum(axis=1)[None, :])
            )
            # scale the temperature by the current nearest-distance level so a
            # given tau means the same softness whatever the latent scale; the
            # scale stays in the graph, keeping the relaxation exactly
            # differentiable end to end
            scale = nn.gather_last(d2, idx).mean() + 1e-6
            code = nn.softmax(d2 / (scale * (-soft_tau)), axis=-1) @ codes
        return idx.reshape(B, n), flat.data, code.reshape(B, n, d).transpose(0, 2, 1)

    # -- persistence --------------------------------------------------------

    def buffers(self) -> dict[str, tuple[object, str]]:
        out = {f"codebook.{p}.{v}.{name}": (cb, name)
               for p in PARTS for v, cb in enumerate(self.codebooks[p])
               for name in ("codes", "ema_count", "ema_sum", "usage")}
        out["norm.mean"] = (self, "norm_mean")
        out["norm.std"] = (self, "norm_std")
        return out


# -- public operations ----------------------------------------------------------


@dataclass
class EncodeResult:
    grid: TokenGrid
    quantized: dict[str, list[np.ndarray]]       # per part, per layer (n, d)
    initial: dict[str, np.ndarray]               # pre-quantization latent (n, d)
    final_residual: dict[str, np.ndarray]        # what the stack left over (n, d)


@nn.no_grad()
def encode(model: MotionTokenizer, seq: MotionSequence) -> EncodeResult:
    if seq.frames < DOWNSCALE:
        raise TooShortError(f"need at least {DOWNSCALE} frames, got {seq.frames}")
    latents = model.encode_latents(_pad_batch(seq.data[None]))
    ladder = model.ladder(latents)
    v1 = model.config.layers + 1
    n = latents["body"].shape[2]
    indices = np.zeros((v1, 3, n), dtype=np.int64)
    quantized, initial, final = {}, {}, {}
    for pi, part in enumerate(PARTS):
        res = ladder[part]
        for v in range(v1):
            indices[v, pi] = res["indices"][v][0]
        quantized[part] = [c[0].T.copy() for c in res["code_values"]]
        initial[part] = res["initial"].data[0].T.copy()
        final[part] = res["final_residual"].data[0].T.copy()
    return EncodeResult(TokenGrid(indices, seq.frames, seq.fps), quantized, initial, final)


def code_sums(model: MotionTokenizer, indices: np.ndarray, layers) -> np.ndarray:
    """Per part, the sum of the code vectors that token grids `indices`
    (B, V+1, 3, n) pick in each of `layers` -> (B, 3, n, d).  Sums start at
    zero and add the layers in the order given; indices are not checked."""
    B, _, _, n = indices.shape
    out = np.zeros((B, 3, n, model.config.code_dim))
    for p, part in enumerate(PARTS):
        for v in layers:
            out[:, p] += model.codebooks[part][v].codes[indices[:, v, p]]
    return out


def decoder_apply(model: MotionTokenizer, sums: Tensor, denormalize: bool = True) -> Tensor:
    """Decoder over (B, 3d, n) code sums -> (B, T, 723) frames."""
    out = model.decoder(sums).transpose(0, 2, 1)
    if denormalize:
        out = out * Tensor(model.norm_std[None, None, :]) + Tensor(model.norm_mean[None, None, :])
    return out


@nn.no_grad()
def decode(model: MotionTokenizer, grid: TokenGrid, max_layers: int | None = None) -> MotionSequence:
    """Frames from the code sums of layers 0..max_layers-1 (all by default)."""
    k = model.config.codebook_size
    layers = grid.layer_count if max_layers is None else max_layers
    if not 1 <= layers <= grid.layer_count:
        raise ParameterError(f"max_layers {max_layers} outside [1, {grid.layer_count}]")
    if grid.indices.min() < 0 or grid.indices.max() >= k:
        raise InvalidTokenError(f"token index outside [0, {k})")
    sums = code_sums(model, grid.indices[None], range(layers))  # (1, 3, n, d)
    sums = sums.transpose(0, 1, 3, 2).reshape(1, -1, grid.n)   # (1, 3d, n) decoder input
    frames = decoder_apply(model, Tensor(sums)).data[0]
    return MotionSequence(frames[:grid.n_frames], fps=grid.fps)


@dataclass
class TokenizerLoss:
    total: Tensor
    recon: Tensor
    embed_body: Tensor
    embed_hand: Tensor
    embed_face: Tensor
    ladder: dict


def tokenizer_loss(model: MotionTokenizer, batch: np.ndarray,
                   active_layers: int | None = None,
                   soft_tau: float | None = None,
                   commit_targets: dict | None = None) -> TokenizerLoss:
    """Reconstruction L1 plus per-part commitment terms.

    `batch` is (B, T, 723) raw frames.  The default is the hard forward with
    straight-through gradients, which training uses; a soft temperature
    switches to the fully differentiable softmax relaxation of the same loss,
    the reference for gradient checks.  The commitment terms stop the gradient at the quantized vectors; for
    finite-difference checks pass `commit_targets` (per part, per layer) so
    those frozen constants stay fixed while parameters are perturbed.
    """
    if batch.ndim != 3 or batch.shape[0] == 0:
        raise ParameterError("batch must be nonempty (B, T, 723)")
    batch = _pad_batch(batch)
    latents = model.encode_latents(batch)
    ladder = model.ladder(latents, active_layers=active_layers, soft_tau=soft_tau)
    sums = nn.concat([ladder[p]["stack"] for p in PARTS], axis=1)
    recon = decoder_apply(model, sums, denormalize=False)
    target = Tensor(model.normalize(batch))
    recon_loss = (recon - target).abs().mean()

    # commitment over the residual layers (v >= 1), stop-gradient on the codes
    embeds = {}
    for part in PARTS:
        res = ladder[part]
        total = Tensor(np.zeros(()))
        for v in range(1, len(res["commit_residuals"])):
            sg = (commit_targets[part][v] if commit_targets is not None
                  else res["code_values"][v])
            diff = res["commit_residuals"][v] - Tensor(sg)
            total = total + (diff * diff).sum(axis=(1, 2)).sqrt().mean()
        embeds[part] = total
    cfg = model.config
    total = (recon_loss
             + cfg.alpha * embeds["body"]
             + cfg.beta * embeds["hand"]
             + cfg.gamma * embeds["face"])
    return TokenizerLoss(total, recon_loss, embeds["body"], embeds["hand"], embeds["face"], ladder)


def _sum_tensors(tensors: list[Tensor]) -> Tensor:
    out = tensors[0]
    for t in tensors[1:]:
        out = out + t
    return out


def _pad_batch(batch: np.ndarray) -> np.ndarray:
    pad = (-batch.shape[1]) % DOWNSCALE
    if pad:
        batch = np.concatenate([batch, np.repeat(batch[:, -1:], pad, axis=1)], axis=1)
    return batch


# -- training ---------------------------------------------------------------------


def train_tokenizer(train_frames: np.ndarray, config: TokenizerConfig,
                    log: list | None = None) -> MotionTokenizer:
    """Fit the tokenizer on (N_seqs, T, 723) raw frames; fully seed-driven.

    Each step takes the hard straight-through loss.  Codebooks follow EMA
    k-means over assignments, the linear decoder is refit in closed form
    every `refit_every` steps and the encoders take AdamW steps at
    `lr * enc_lr_scale`.
    """
    if train_frames.shape[0] == 0:
        raise ParameterError("empty training set")
    model = MotionTokenizer(config)
    model.set_normalizer(train_frames.reshape(-1, FRAME_WIDTH))
    enc_params = [p for m in model.encoders for p in m.parameters()]
    opt_enc = nn.AdamW(enc_params, lr=config.lr * config.enc_lr_scale)
    batch_rng = generator(config.seed, "tokenizer-batches")
    drop_rng = generator(config.seed, "tokenizer-dropout")
    reset_rng = generator(config.seed, "tokenizer-reset")

    n_seqs = train_frames.shape[0]
    anchor = train_frames[:min(config.anchor_seqs, n_seqs)]
    batch_size = min(config.batch, n_seqs)
    steps_per_epoch = max(1, n_seqs // batch_size)
    order = batch_rng.permutation(n_seqs)
    cursor = 0
    v1 = config.layers + 1
    crop = config.crop_frames
    if crop and crop % DOWNSCALE:
        raise ParameterError(f"crop_frames must be a multiple of {DOWNSCALE}")

    for step in range(config.steps):
        if cursor + batch_size > n_seqs:
            order = batch_rng.permutation(n_seqs)
            cursor = 0
        batch = train_frames[order[cursor:cursor + batch_size]]
        cursor += batch_size
        if crop and crop < batch.shape[1]:
            # crops stay aligned to the token stride so phase is consistent
            slots = (batch.shape[1] - crop) // DOWNSCALE + 1
            starts = DOWNSCALE * batch_rng.integers(0, slots, size=batch.shape[0])
            batch = np.stack([b[s:s + crop] for b, s in zip(batch, starts)])

        active = v1
        if config.layers > 0 and drop_rng.uniform() < config.dropout_q:
            active = int(drop_rng.integers(1, v1))  # keep layers 0..active-1

        if step == 0:  # codebooks start from the first batch's latents
            if log is not None:
                with nn.no_grad():
                    virgin = tokenizer_loss(model, batch)
                log.append({"step": -1, "total": float(virgin.total.data),
                            "recon": float(virgin.recon.data), "active": v1})
            _init_codebooks(model, batch, reset_rng)
            refit_decoder_bypass(model, anchor)

        loss = tokenizer_loss(model, batch, active_layers=active)
        if not np.isfinite(loss.total.data):
            raise TrainingFailureError("tokenizer loss diverged", step)
        model.zero_grad()
        loss.total.backward()
        lr_frac = nn.warmup_lr(step, 1.0, config.warmup_steps)
        opt_enc.step(lr=config.lr * config.enc_lr_scale * lr_frac)

        _ema_update_codebooks(model, loss.ladder, EMA_DECAY)
        if (step + 1) % steps_per_epoch == 0:
            _reset_dead_codes(model, loss.ladder, reset_rng)
        if config.refit_every and (step + 1) % config.refit_every == 0:
            refit_decoder_bypass(model, anchor)
        if log is not None:
            log.append({"step": step, "total": float(loss.total.data),
                        "recon": float(loss.recon.data), "active": active})

    # finalize: freeze the nets, re-run EMA so the codes match the final
    # encoder exactly, then solve the readout one last time
    final_count = min(config.final_seqs, n_seqs) if config.final_seqs else n_seqs
    for _ in range(config.final_passes):
        for part in PARTS:
            for cb in model.codebooks[part]:
                cb.usage[:] = 0
        start = 0
        while start < final_count:
            chunk = train_frames[start:start + batch_size]
            start += batch_size
            with nn.no_grad():
                ladder = model.ladder(model.encode_latents(_pad_batch(chunk)))
            _ema_update_codebooks(model, ladder, 0.5)
        _reset_dead_codes(model, ladder, reset_rng)
    refit_decoder_bypass(model, anchor)
    return model


def _ema_update_codebooks(model: MotionTokenizer, ladder: dict, decay: float) -> None:
    """EMA-update each codebook the ladder ran (its active layers) with the
    quantizer inputs and the codes it chose."""
    for part in PARTS:
        res = ladder[part]
        for v, (q_in, idx) in enumerate(zip(res["q_inputs"], res["indices"])):
            model.codebooks[part][v].ema_update(q_in, idx.reshape(-1), decay)


def _reset_dead_codes(model: MotionTokenizer, ladder: dict, rng: np.random.Generator) -> None:
    """Reset every codebook's dead codes from its part's layer-0 quantizer inputs."""
    for part in PARTS:
        latents = ladder[part]["q_inputs"][0]
        for cb in model.codebooks[part]:
            cb.reset_dead(latents, rng)


@nn.no_grad()
def _init_codebooks(model: MotionTokenizer, batch: np.ndarray, rng: np.random.Generator) -> None:
    latents = model.encode_latents(batch)
    ladder = model.ladder(latents)  # hard pass just to reach every stack input
    for part in PARTS:
        for v, cb in enumerate(model.codebooks[part]):
            cb.init_from(ladder[part]["q_inputs"][v], rng)


@nn.no_grad()
def refit_decoder_bypass(model: MotionTokenizer, batch: np.ndarray) -> None:
    """Closed-form ridge fit of the phase-resolved linear decoder.

    Solves the least-squares map from hard code sums to the frames of each
    token stride and writes it into the decoder's 1x1 conv.  A few of these
    during training keep the linear decode optimal for the moving codebooks.
    """
    latents = model.encode_latents(batch)
    ladder = model.ladder(latents)
    sums = np.concatenate([ladder[p]["stack"].data for p in PARTS], axis=1)
    B, C3, n = sums.shape
    X = sums.transpose(0, 2, 1).reshape(B * n, C3)
    X = np.concatenate([X, np.ones((X.shape[0], 1))], axis=1)
    Y = model.normalize(batch).reshape(B * n, DOWNSCALE * FRAME_WIDTH)
    gram = X.T @ X
    lam = 1e-3 * np.trace(gram) / gram.shape[0]
    gram[np.diag_indices_from(gram)] += lam
    W = np.linalg.solve(gram, X.T @ Y)
    model.decoder.skip.weight.data = np.ascontiguousarray(W[:-1].T[:, :, None])
    model.decoder.skip.bias.data = W[-1].copy()


# -- checkpoint round trip ---------------------------------------------------------


def save_tokenizer(path, model: MotionTokenizer) -> None:
    from .io import save_checkpoint

    save_checkpoint(path, "tokenizer", model.config.to_dict(), model.config.seed, model.state())


def load_tokenizer(path) -> MotionTokenizer:
    from .io import load_checkpoint

    kind, config, _seed, arrays = load_checkpoint(path)
    if kind != "tokenizer":
        raise ParameterError(f"{path}: expected a tokenizer checkpoint, got {kind!r}")
    model = MotionTokenizer(read_config(TokenizerConfig, "hrvq", config))
    model.load_state(arrays)
    return model
