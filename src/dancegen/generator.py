"""Music-conditioned masked token generator.

Stage one is a masked transformer over the layer-0 token triples (body,
hands, face fused per timestep); stage two is a residual transformer that
predicts each deeper layer from the code sums of the layers before it, with
a learned layer-index embedding.  Both stages are conditioned on a frozen
retrieval-model music latent (prepended as one token) plus per-timestep
track features, with classifier-free guidance at inference.  Alignment
supervision decodes predicted tokens through the frozen motion decoder via a
Gumbel-softmax relaxation and pulls the resulting retrieval latents toward
the paired music latents.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import nn
from .errors import (
    PairingError,
    ParameterError,
    TooShortError,
    TrainingFailureError,
    check_minimums,
    read_config,
)
from .motion import MotionSequence
from .nn import Tensor
from .nn.rng import generator
from .retrieval import DualEncoder, RetrievalConfig, info_nce, similarity_matrix
from .synth import MusicTrack, TRACK_FEATURE_DIM
from .tokenizer import DOWNSCALE, MotionTokenizer, TokenGrid, code_sums, decoder_apply, PARTS

MASK_RATIO_FLOOR = 0.05
MAX_TOKENS = 256       # rows of the position table: the longest token grid
COND_DROP = 0.1        # share of training samples without their condition
GUMBEL_START = 1.0     # relaxation temperature at the first training step
GUMBEL_END = 0.1       # and at the last
TEMPERATURE_START = 1.0  # sampling temperature at the first unmasking round
TEMPERATURE_END = 0.0    # and at the last


@dataclass
class GeneratorConfig:
    codebook_size: int = 512
    code_dim: int = 512
    layers_v: int = 5
    width: int = 512
    depth: int = 6
    res_depth: int = 6
    heads: int = 8
    music_latent: int = 256
    lambda_body: float = 0.5
    lambda_whole: float = 0.5
    steps: int = 400
    batch: int = 64
    lr: float = 2e-4
    warmup_steps: int = 100
    seed: int = 0

    RETIRED = {"cond_drop": COND_DROP, "gumbel_start": GUMBEL_START, "gumbel_end": GUMBEL_END,
               "max_tokens": MAX_TOKENS}


@dataclass
class GenerationConfig:
    cfg_scale_base: float = 4.0
    cfg_scale_residual: float = 5.0
    iterations: int = 10
    seed: int = 0

    RETIRED = {"temperature_start": TEMPERATURE_START, "temperature_end": TEMPERATURE_END}

    def __post_init__(self):
        check_minimums(self, cfg_scale_base=0.0, cfg_scale_residual=0.0, iterations=1)
        for key in ("cfg_scale_base", "cfg_scale_residual"):
            if not np.isfinite(getattr(self, key)):
                raise ParameterError(f"GenerationConfig.{key} must be finite, "
                                     f"got {getattr(self, key)!r}")


def unmask_schedule(u: float) -> float:
    """Remaining-mask fraction at progress u of iterative decoding."""
    if not 0.0 <= u <= 1.0:
        raise ParameterError(f"progress {u} outside [0, 1]")
    return float(np.cos(np.pi * u / 2.0))


def mask_tokens(layer0: np.ndarray, ratio: float, seed_or_rng, mask_id: int):
    """Mask ceil(ratio*n) whole timesteps (all three part tokens).

    layer0 is (3, n) or (B, 3, n); returns (masked copy, boolean mask over
    timesteps with the batch shape of the input).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ParameterError(f"mask ratio {ratio} outside [0, 1]")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) \
        else generator(int(seed_or_rng), "mask")
    single = layer0.ndim == 2
    tokens = layer0[None] if single else layer0
    B, _, n = tokens.shape
    count = int(np.ceil(ratio * n))
    masked = tokens.copy()
    mask = np.zeros((B, n), dtype=bool)
    for b in range(B):
        pos = rng.permutation(n)[:count]
        mask[b, pos] = True
        masked[b, :, pos] = mask_id
    if single:
        return masked[0], mask[0]
    return masked, mask


class MaskedGenerator(nn.Module):
    def __init__(self, config: GeneratorConfig):
        super().__init__()
        self.config = config
        rng = generator(config.seed, "generator-init")
        K, w = config.codebook_size, config.width
        self.embed = [nn.Embedding(K + 1, w, rng) for _ in PARTS]  # mask id = K
        self.fuse = nn.Linear(3 * w, w, rng)
        self.pos = nn.Embedding(MAX_TOKENS, w, rng, scale=0.05)
        self.music_proj = nn.Linear(config.music_latent, w, rng)
        self.feat_proj = nn.Linear(DOWNSCALE * TRACK_FEATURE_DIM, w, rng)
        self.null_cond = self.register("null_cond", rng.normal(0.0, 0.02, size=(w,)))
        self.blocks = [nn.TransformerBlock(w, config.heads, rng) for _ in range(config.depth)]
        self.heads_out = [nn.Linear(w, K, rng) for _ in PARTS]
        # residual stage: one stack shared across layers, told which layer by
        # a learned index embedding
        self.code_proj = [nn.Linear(config.code_dim, w, rng) for _ in PARTS]
        self.fuse_res = nn.Linear(3 * w, w, rng)
        self.layer_embed = nn.Embedding(config.layers_v + 1, w, rng)
        self.res_blocks = [nn.TransformerBlock(w, config.heads, rng) for _ in range(config.res_depth)]
        self.res_heads = [nn.Linear(w, K, rng) for _ in PARTS]
        self.forward_count = 0  # transformer applications, for cost reporting

    @property
    def mask_id(self) -> int:
        return self.config.codebook_size

    def _condition(self, music_latent: np.ndarray, feats: np.ndarray,
                   drop: np.ndarray | None):
        B = music_latent.shape[0]
        cond_tok = self.music_proj(Tensor(music_latent))  # (B, w)
        feat_tok = self.feat_proj(Tensor(feats))          # (B, n, w)
        if drop is not None and drop.any():
            keep = Tensor((~drop).astype(np.float64)[:, None])
            cond_tok = cond_tok * keep + self.null_cond.reshape(1, -1) * (1.0 - keep)
            feat_tok = feat_tok * keep.reshape(B, 1, 1)
        return cond_tok, feat_tok

    def forward_base(self, tokens: np.ndarray, music_latent: np.ndarray,
                     feats: np.ndarray, drop: np.ndarray | None = None) -> Tensor:
        """tokens (B, 3, n) int -> logits Tensor (3, B, n, K)."""
        _check_length(tokens.shape[-1])
        self.forward_count += 1
        B, _, n = tokens.shape
        parts = [emb(tokens[:, p]) for p, emb in enumerate(self.embed)]
        h = self.fuse(nn.concat(parts, axis=-1))
        cond_tok, feat_tok = self._condition(music_latent, feats, drop)
        h = h + self.pos(np.tile(np.arange(n), (B, 1))) + feat_tok
        h = nn.concat([cond_tok.reshape(B, 1, -1), h], axis=1)
        for block in self.blocks:
            h = block(h)
        body = h[:, 1:]
        return nn.stack([head(body) for head in self.heads_out], axis=0)

    def forward_residual(self, prev_sums: np.ndarray, layer: int,
                         music_latent: np.ndarray, feats: np.ndarray,
                         drop: np.ndarray | None = None) -> Tensor:
        """prev_sums (B, 3, n, d) cumulative code vectors of layers < layer."""
        _check_length(prev_sums.shape[2])
        self.forward_count += 1
        B, _, n, _ = prev_sums.shape
        parts = [proj(Tensor(prev_sums[:, p])) for p, proj in enumerate(self.code_proj)]
        h = self.fuse_res(nn.concat(parts, axis=-1))
        cond_tok, feat_tok = self._condition(music_latent, feats, drop)
        layer_vec = self.layer_embed(np.full((B, 1), layer))
        h = h + self.pos(np.tile(np.arange(n), (B, 1))) + feat_tok + layer_vec
        h = nn.concat([cond_tok.reshape(B, 1, -1), h], axis=1)
        for block in self.res_blocks:
            h = block(h)
        body = h[:, 1:]
        return nn.stack([head(body) for head in self.res_heads], axis=0)


def _check_length(n: int) -> None:
    """ParameterError naming the limit when n token steps overrun the
    position table."""
    if n > MAX_TOKENS:
        raise ParameterError(f"{n} token steps ({DOWNSCALE * n} frames) exceed the generator's "
                             f"limit of {MAX_TOKENS} ({DOWNSCALE * MAX_TOKENS} frames)")


def _check_frozen_shapes(config: GeneratorConfig, tokenizer: MotionTokenizer,
                         mmr_whole: DualEncoder) -> None:
    """ParameterError naming both values when a generator shape differs from
    the frozen model it reads codes or music latents from."""
    frozen = {"codebook_size": ("tokenizer's codebook_size", tokenizer.config.codebook_size),
              "code_dim": ("tokenizer's code_dim", tokenizer.config.code_dim),
              "layers_v": ("tokenizer's layers", tokenizer.config.layers),
              "music_latent": ("music encoder's latent_dim", mmr_whole.config.latent_dim)}
    for key, (name, value) in frozen.items():
        if getattr(config, key) != value:
            raise ParameterError(f"generator {key}={getattr(config, key)} does not match "
                                 f"the {name}={value}")


def track_features(track: MusicTrack, n: int) -> np.ndarray:
    """Group the track's feature rows per token stride -> (n, 4*35)."""
    rows = track.features
    need = DOWNSCALE * n
    if rows.shape[0] < need:
        pad = np.repeat(rows[-1:], need - rows.shape[0], axis=0)
        rows = np.concatenate([rows, pad], axis=0)
    return rows[:need].reshape(n, DOWNSCALE * TRACK_FEATURE_DIM)


def music_latents(mmr: DualEncoder, tracks: list) -> np.ndarray:
    from .retrieval import encode_music
    return np.stack([encode_music(mmr, t) for t in tracks])


# -- losses -------------------------------------------------------------------


def _cross_entropy(logits: Tensor, targets: np.ndarray, position_mask: np.ndarray | None) -> Tensor:
    """logits (3, B, n, K), targets (B, 3, n); mean -log p over selected positions."""
    logp = nn.log_softmax(logits, axis=-1)
    picked = nn.gather_last(logp, targets.transpose(1, 0, 2))  # (3, B, n)
    if position_mask is None:
        return -picked.mean()
    weights = np.broadcast_to(position_mask[None], picked.shape).astype(np.float64)
    total = np.maximum(weights.sum(), 1.0)
    return -(picked * Tensor(weights)).sum() * (1.0 / total)


def _gumbel_soft_codes(logits: Tensor, codebook_codes: np.ndarray, tau: float,
                       rng: np.random.Generator | None) -> Tensor:
    """Relaxed code mixture per position: softmax((logits+gumbel)/tau) @ codes."""
    if rng is not None:
        u = rng.uniform(1e-12, 1.0, size=logits.shape)
        logits = logits + Tensor(-np.log(-np.log(u)))
    probs = nn.softmax(logits * (1.0 / max(tau, 1e-6)), axis=-1)
    return probs @ Tensor(codebook_codes)


def _align_loss(decoded_frames: Tensor, mmr: DualEncoder, music_latent: np.ndarray) -> Tensor:
    z = mmr.encode_motion_batch(decoded_frames)
    S = similarity_matrix(z, Tensor(music_latent), mmr.config.temperature)
    return info_nce(S)


def base_loss(model: MaskedGenerator, tokenizer: MotionTokenizer, mmr_body: DualEncoder,
              grids: np.ndarray, music_latent_cond: np.ndarray, music_latent_body: np.ndarray,
              feats: np.ndarray, ratio: float, rng: np.random.Generator,
              tau: float = 0.5, gumbel_rng: np.random.Generator | None = None,
              drop: np.ndarray | None = None, lambda_body: float | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Masked cross-entropy over layer-0 tokens plus the body alignment term.

    grids is (B, V+1, 3, n) token indices; returns (total, ce, align).
    """
    if grids.shape[0] != music_latent_cond.shape[0]:
        raise PairingError("token grids and music latents differ in batch size")
    lam = model.config.lambda_body if lambda_body is None else lambda_body
    tokens0 = grids[:, 0]
    masked, mask = mask_tokens(tokens0, ratio, rng, model.mask_id)
    logits = model.forward_base(masked, music_latent_cond, feats, drop)
    ce = _cross_entropy(logits, tokens0, mask)
    if lam == 0.0:
        return ce, ce, Tensor(np.zeros(()))
    # relaxed decode of the predicted layer-0 codes, true codes where unmasked
    sums = []
    for p, part in enumerate(PARTS):
        codes = tokenizer.codebooks[part][0].codes
        soft = _gumbel_soft_codes(logits[p], codes, tau, gumbel_rng)  # (B, n, d)
        hard = codes[tokens0[:, p]]
        w = Tensor(mask[:, :, None].astype(np.float64))
        sums.append((soft * w + Tensor(hard) * (1.0 - w)).transpose(0, 2, 1))
    decoded = decoder_apply(tokenizer, nn.concat(sums, axis=1))  # (B, 4n, 723)
    align = _align_loss(decoded, mmr_body, music_latent_body)
    total = ce + lam * align
    return total, ce, align


def residual_loss(model: MaskedGenerator, tokenizer: MotionTokenizer, mmr_whole: DualEncoder,
                  grids: np.ndarray, layer: int, music_latent_cond: np.ndarray,
                  music_latent_whole: np.ndarray, feats: np.ndarray,
                  tau: float = 0.5, gumbel_rng: np.random.Generator | None = None,
                  drop: np.ndarray | None = None, lambda_whole: float | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Cross-entropy for one residual layer plus the whole-body alignment term."""
    if model.config.layers_v < 1:
        raise ParameterError("no residual layers to train (V = 0)")
    if not 1 <= layer <= model.config.layers_v:
        raise ParameterError(f"layer {layer} outside [1, {model.config.layers_v}]")
    lam = model.config.lambda_whole if lambda_whole is None else lambda_whole
    prev = code_sums(tokenizer, grids, range(layer))
    logits = model.forward_residual(prev, layer, music_latent_cond, feats, drop)
    targets = grids[:, layer]
    ce = _cross_entropy(logits, targets, None)
    if lam == 0.0:
        return ce, ce, Tensor(np.zeros(()))
    # full decode with layer `layer` relaxed, all other layers as given
    rest = code_sums(tokenizer, grids, [v for v in range(grids.shape[1]) if v != layer])
    sums = []
    for p, part in enumerate(PARTS):
        codes = tokenizer.codebooks[part][layer].codes
        soft = _gumbel_soft_codes(logits[p], codes, tau, gumbel_rng)
        sums.append((soft + Tensor(rest[:, p])).transpose(0, 2, 1))
    decoded = decoder_apply(tokenizer, nn.concat(sums, axis=1))
    align = _align_loss(decoded, mmr_whole, music_latent_whole)
    total = ce + lam * align
    return total, ce, align


# -- training -------------------------------------------------------------------


def _freeze(module: nn.Module) -> None:
    for p in module.parameters():
        p.requires_grad = False


@dataclass
class TrainingSet:
    """The training samples as the frozen models see them: token grids
    (N, V+1, 3, n), whole- and body-variant music latents, and per-token
    track features.  Generators trained on the same samples and frozen
    models can share one instead of re-encoding every clip."""
    grids: np.ndarray
    cond: np.ndarray
    c_body: np.ndarray
    feats: np.ndarray


def encode_training_set(samples: list, tokenizer: MotionTokenizer, mmr_body: DualEncoder,
                        mmr_whole: DualEncoder) -> TrainingSet:
    """What train_generator fits on: each sample encoded by the frozen models."""
    from .retrieval import encode_music
    from .tokenizer import encode

    if not samples:
        raise ParameterError("empty training set")
    grids = np.stack([encode(tokenizer, s.motion).grid.indices for s in samples])
    n = grids.shape[-1]
    return TrainingSet(
        grids=grids,
        cond=np.stack([encode_music(mmr_whole, s.track) for s in samples]),
        c_body=np.stack([encode_music(mmr_body, s.track) for s in samples]),
        feats=np.stack([track_features(s.track, n) for s in samples]),
    )


def train_generator(samples: list, tokenizer: MotionTokenizer, mmr_body: DualEncoder,
                    mmr_whole: DualEncoder, config: GeneratorConfig,
                    log: list | None = None) -> "MaskedGenerator":
    """Fit both stages on tokenized training samples.

    The tokenizer and both retrieval models are frozen; the whole-variant
    music encoder is copied into the generator as its conditioning pathway
    (so generation needs no separate retrieval checkpoint).
    """
    encoded = encode_training_set(samples, tokenizer, mmr_body, mmr_whole)
    return _fit_generator(encoded, tokenizer, mmr_body, mmr_whole, config, log)


def _fit_generator(encoded: TrainingSet, tokenizer: MotionTokenizer, mmr_body: DualEncoder,
                   mmr_whole: DualEncoder, config: GeneratorConfig,
                   log: list | None = None) -> "MaskedGenerator":
    """train_generator's optimisation loop on already encoded samples."""
    _check_frozen_shapes(config, tokenizer, mmr_whole)
    _freeze(tokenizer)
    _freeze(mmr_body)
    _freeze(mmr_whole)
    model = MaskedGenerator(config)
    model.cond_encoder = mmr_whole
    grids, cond, c_body, feats = encoded.grids, encoded.cond, encoded.c_body, encoded.feats

    params = [p for p in model.parameters() if p.requires_grad]
    opt = nn.AdamW(params, lr=config.lr)
    batch_rng = generator(config.seed, "generator-batches")
    mask_rng = generator(config.seed, "generator-mask")
    drop_rng = generator(config.seed, "generator-drop")
    gumbel_rng = generator(config.seed, "generator-gumbel")
    layer_rng = generator(config.seed, "generator-layer")

    count = len(grids)
    batch_size = min(config.batch, count)
    for step in range(config.steps):
        idx = batch_rng.choice(count, size=batch_size, replace=False)
        frac = step / max(1, config.steps - 1)
        tau = GUMBEL_START + (GUMBEL_END - GUMBEL_START) * frac
        ratio = max(unmask_schedule(float(mask_rng.uniform())), MASK_RATIO_FLOOR)
        drop = drop_rng.uniform(size=batch_size) < COND_DROP
        total, ce_b, al_b = base_loss(
            model, tokenizer, mmr_body, grids[idx], cond[idx], c_body[idx],
            feats[idx], ratio, mask_rng, tau=tau, gumbel_rng=gumbel_rng, drop=drop)
        if config.layers_v >= 1:
            layer = int(layer_rng.integers(1, config.layers_v + 1))
            res_total, ce_r, al_r = residual_loss(
                model, tokenizer, mmr_whole, grids[idx], layer, cond[idx],
                cond[idx], feats[idx], tau=tau, gumbel_rng=gumbel_rng, drop=drop)
            total = total + res_total
        else:
            ce_r = al_r = Tensor(np.zeros(()))
        if not np.isfinite(total.data):
            raise TrainingFailureError("generator loss diverged", step)
        model.zero_grad()
        total.backward()
        opt.step(lr=nn.warmup_lr(step, config.lr, config.warmup_steps))
        if log is not None:
            log.append({"step": step, "total": float(total.data),
                        "ce_base": float(ce_b.data), "align_body": float(al_b.data),
                        "ce_res": float(ce_r.data), "align_whole": float(al_r.data)})
    return model


# -- inference -------------------------------------------------------------------


def _cfg_logits(model: MaskedGenerator, forward, scale: float) -> np.ndarray:
    """Guided logits: uncond + scale * (cond - uncond); skips the extra pass
    when the scale is exactly 1."""
    cond = forward(False).data
    if scale == 1.0:
        return cond
    uncond = forward(True).data
    return uncond + scale * (cond - uncond)


def _sample(logits: np.ndarray, temperature: float, rng: np.random.Generator) -> np.ndarray:
    """Categorical sample over the last axis via the Gumbel-max trick."""
    if temperature <= 1e-8:
        return np.argmax(logits, axis=-1)
    g = -np.log(-np.log(rng.uniform(1e-12, 1.0, size=logits.shape)))
    return np.argmax(logits / temperature + g, axis=-1)


@nn.no_grad()
def generate(model: MaskedGenerator, tokenizer: MotionTokenizer, track: MusicTrack,
             gcfg: GenerationConfig | None = None) -> MotionSequence:
    """Two-stage iterative generation, then decode through the tokenizer."""
    from .retrieval import encode_music

    _check_frozen_shapes(model.config, tokenizer, model.cond_encoder)
    gcfg = gcfg or GenerationConfig()
    fps = track.feature_rate
    n_frames = int(round(track.duration * fps))
    if n_frames < DOWNSCALE:
        raise TooShortError("track shorter than one token stride")
    n = -(-n_frames // DOWNSCALE)
    cond = encode_music(model.cond_encoder, track)[None]
    feats = track_features(track, n)[None]
    rng = generator(gcfg.seed, "generate")
    K = model.config.codebook_size
    v1 = model.config.layers_v + 1

    tokens = np.full((1, 3, n), model.mask_id, dtype=np.int64)
    masked = np.ones(n, dtype=bool)
    iters = gcfg.iterations
    for r in range(iters):
        def forward(unconditional: bool) -> Tensor:
            drop = np.array([unconditional])
            return model.forward_base(tokens, cond, feats, drop)

        logits = _cfg_logits(model, forward, gcfg.cfg_scale_base)  # (3, 1, n, K)
        frac = r / max(1, iters - 1)
        temp = TEMPERATURE_START + (TEMPERATURE_END - TEMPERATURE_START) * frac
        choice = _sample(logits[:, 0], temp, rng)                  # (3, n)
        logp = nn.log_softmax(Tensor(logits[:, 0]), axis=-1).data
        conf = np.take_along_axis(logp, choice[:, :, None], axis=-1)[:, :, 0].mean(axis=0)
        remaining = int(np.floor(n * unmask_schedule((r + 1) / iters)))
        commits = max(1, int(masked.sum()) - remaining)
        order = np.argsort(-np.where(masked, conf, -np.inf), kind="stable")
        commit_pos = order[:min(commits, int(masked.sum()))]
        tokens[0, :, commit_pos] = choice[:, commit_pos].T
        masked[commit_pos] = False
        if not masked.any():
            break

    indices = np.zeros((v1, 3, n), dtype=np.int64)
    indices[0] = tokens[0]
    for layer in range(1, v1):
        prev = code_sums(tokenizer, indices[None], range(layer))

        def forward(unconditional: bool) -> Tensor:
            drop = np.array([unconditional])
            return model.forward_residual(prev, layer, cond, feats, drop)

        logits = _cfg_logits(model, forward, gcfg.cfg_scale_residual)
        indices[layer] = np.argmax(logits[:, 0], axis=-1)

    grid = TokenGrid(indices, DOWNSCALE * n, fps=fps)
    from .tokenizer import decode
    return decode(tokenizer, grid)


@nn.no_grad()
def masked_accuracy(model: MaskedGenerator, tokenizer: MotionTokenizer, samples: list,
                    ratio: float = 0.5, seed: int = 0) -> float:
    """Teacher-forced accuracy on masked layer-0 tokens of held-out samples."""
    from .retrieval import encode_music
    from .tokenizer import encode

    rng = generator(seed, "masked-accuracy")
    hits = total = 0
    for s in samples:
        grid = encode(tokenizer, s.motion).grid
        n = grid.n
        cond = encode_music(model.cond_encoder, s.track)[None]
        feats = track_features(s.track, n)[None]
        masked, mask = mask_tokens(grid.indices[0][None], ratio, rng, model.mask_id)
        logits = model.forward_base(masked, cond, feats).data[:, 0]
        pred = np.argmax(logits, axis=-1)
        hits += int((pred[:, mask[0]] == grid.indices[0][:, mask[0]]).sum())
        total += int(3 * mask.sum())
    return hits / max(total, 1)


# -- checkpoints ------------------------------------------------------------------


def save_generator(path, model: MaskedGenerator) -> None:
    """The generator's state, its conditioning encoder's under `cond_encoder.`."""
    from .io import save_checkpoint

    config = {"generator": asdict(model.config), "condition": asdict(model.cond_encoder.config)}
    save_checkpoint(path, "generator", config, model.config.seed, model.state())


def load_generator(path) -> MaskedGenerator:
    from .io import load_checkpoint

    kind, config, _seed, arrays = load_checkpoint(path)
    if kind != "generator":
        raise ParameterError(f"{path}: expected a generator checkpoint, got {kind!r}")
    for section in ("generator", "condition"):
        if section not in config:
            raise ParameterError(f"{path}: generator checkpoint config has no {section!r} section")
    model = MaskedGenerator(read_config(GeneratorConfig, "generator", config["generator"]))
    model.cond_encoder = DualEncoder(read_config(RetrievalConfig, "condition", config["condition"]))
    model.load_state(arrays)
    _freeze(model.cond_encoder)
    return model
