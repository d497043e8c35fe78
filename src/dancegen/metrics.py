"""Evaluation suite: matching score between retrieval latents, emotion and
beat alignment, Frechet distance over learned motion features, dispersion
statistics, and reconstruction errors.

All metrics are pure functions; the learned feature extractor for the
Frechet/diversity family is a small convolutional auto-encoder trained on the
synthetic corpus, so its numbers are comparable only within this package.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import nn
from .errors import (
    ComparabilityError,
    MissingCheckpointError,
    ParameterError,
    ShapeError,
    TooShortError,
    TrainingFailureError,
    check_minimums,
    check_same_length,
    read_config,
)
from .motion import FRAME_WIDTH, JV, JOINT_COUNT, MotionSequence, default_spans
from .nn import Tensor
from .nn.rng import generator

BODY_JOINT_RANGE = (0, 22)
HAND_JOINT_RANGE = (22, 52)


# -- matching score ---------------------------------------------------------------


def mmr_matching_score(motion_latent: np.ndarray, music_latent: np.ndarray,
                       motion_segments: np.ndarray | None = None,
                       music_segments: np.ndarray | None = None,
                       mu: float = 0.7, lam: float = 0.3) -> float:
    """Distance between a dance clip and a music clip in retrieval space.

    sqrt(mu * sum_i (z_i - m_i)^2 + lam * sum_t ||dz_t - dm_t||) where the
    second sum runs over consecutive differences of per-second segment
    latents and is empty when fewer than two segments exist.
    """
    z = np.asarray(motion_latent, dtype=np.float64)
    m = np.asarray(music_latent, dtype=np.float64)
    if z.shape != m.shape:
        raise ShapeError(f"latent widths differ: {z.shape} vs {m.shape}")
    total = mu * float(((z - m) ** 2).sum())
    if motion_segments is not None and music_segments is not None:
        zs = np.asarray(motion_segments, dtype=np.float64)
        ms = np.asarray(music_segments, dtype=np.float64)
        if zs.shape != ms.shape:
            raise ShapeError(f"segment shapes differ: {zs.shape} vs {ms.shape}")
        if zs.shape[0] >= 2:
            dz = np.diff(zs, axis=0)
            dm = np.diff(ms, axis=0)
            total += lam * float(np.linalg.norm(dz - dm, axis=1).sum())
    return float(np.sqrt(total))


# -- emotion alignment --------------------------------------------------------------


def classify_expression(face_frames: np.ndarray, centroids: np.ndarray) -> int:
    """Nearest centroid (Euclidean) to the clip's mean expression vector."""
    face_frames = np.asarray(face_frames)
    if face_frames.size == 0:
        raise ParameterError("empty expression clip")
    mean = face_frames.mean(axis=0)
    return int(np.argmin(((centroids - mean[None, :]) ** 2).sum(axis=1)))


def emotion_alignment_score(face_clips: list, labels, centroids: np.ndarray) -> float:
    """Fraction of clips whose nearest-centroid prediction matches its label."""
    labels = list(labels)
    if len(face_clips) != len(labels) or not face_clips:
        raise ParameterError("need equally many nonempty clips and labels")
    hits = sum(classify_expression(clip, centroids) == int(lab)
               for clip, lab in zip(face_clips, labels))
    return hits / len(labels)


# -- beat alignment ------------------------------------------------------------------


@dataclass
class BeatSet:
    times: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        if self.times.size and not np.all(np.diff(self.times) > 0):
            raise ParameterError("beat times must be strictly increasing")


def kinematic_beats(motion: MotionSequence) -> np.ndarray:
    """Times of local minima of mean joint speed that sit below the median."""
    jv = motion.data[:, JV].reshape(motion.frames, JOINT_COUNT, 3)
    speed = np.linalg.norm(jv, axis=2).mean(axis=1)
    med = np.median(speed)
    s = speed
    interior = (s[1:-1] < s[:-2]) & (s[1:-1] <= s[2:]) & (s[1:-1] < med)
    frames = np.flatnonzero(interior) + 1
    return frames / motion.fps


def beat_alignment_score(music_beats: BeatSet, motion: MotionSequence,
                         sigma: float = 0.1) -> float:
    """Mean Gaussian-kernel coincidence of music beats with kinematic beats."""
    if music_beats.times.size == 0:
        raise ParameterError("empty music beat set")
    kin = kinematic_beats(motion)
    if kin.size == 0:
        return 0.0
    d = music_beats.times[:, None] - kin[None, :]
    nearest_sq = np.min(d * d, axis=1)
    return float(np.mean(np.exp(-nearest_sq / (2.0 * sigma * sigma))))


# -- Frechet distance and dispersion ---------------------------------------------------


@dataclass
class FeatureSet:
    vectors: np.ndarray
    extractor_id: str

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ShapeError("feature set must be (M, d)")


def frechet_distance(mu1: np.ndarray, cov1: np.ndarray,
                     mu2: np.ndarray, cov2: np.ndarray) -> float:
    """Frechet distance between Gaussians via a symmetric eigendecomposition.

    tr((S1 S2)^(1/2)) equals tr((S1^(1/2) S2 S1^(1/2))^(1/2)) with the latter
    symmetric PSD, so eigenvalues are real; tiny negatives from roundoff are
    clipped.
    """
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    diff = float(((mu1 - mu2) ** 2).sum())
    w1, v1 = np.linalg.eigh(cov1)
    root1 = (v1 * np.sqrt(np.clip(w1, 0.0, None))) @ v1.T
    inner = root1 @ cov2 @ root1
    w = np.linalg.eigvalsh(inner)
    tr_geom = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    return diff + float(np.trace(cov1) + np.trace(cov2)) - 2.0 * tr_geom


def fid(real: FeatureSet, generated: FeatureSet) -> float:
    """Frechet distance between Gaussian fits of two feature sets."""
    if real.extractor_id != generated.extractor_id:
        raise ComparabilityError(
            f"feature sets from different extractors: "
            f"{real.extractor_id!r} vs {generated.extractor_id!r}"
        )
    if real.vectors.shape[0] < 2 or generated.vectors.shape[0] < 2:
        raise ParameterError("need at least 2 feature vectors per set")
    mu1, cov1 = real.vectors.mean(axis=0), np.cov(real.vectors, rowvar=False)
    mu2, cov2 = generated.vectors.mean(axis=0), np.cov(generated.vectors, rowvar=False)
    return frechet_distance(mu1, np.atleast_2d(cov1), mu2, np.atleast_2d(cov2))


def diversity(feats: FeatureSet, pairs: int = 300, seed: int = 0) -> float:
    """Mean Euclidean distance over seeded disjoint random pairs."""
    m = feats.vectors.shape[0]
    if m < 2:
        raise ParameterError("need at least 2 feature vectors")
    if 2 * pairs > m:
        raise ParameterError(f"{pairs} disjoint pairs need {2 * pairs} samples, have {m}")
    rng = generator(seed, "diversity")
    order = rng.permutation(m)
    a = feats.vectors[order[:pairs]]
    b = feats.vectors[order[pairs:2 * pairs]]
    return float(np.linalg.norm(a - b, axis=1).mean())


def multimodality(per_track_sets: list, seed: int = 0) -> float:
    """Mean within-track generation distance, averaged over tracks.

    Each entry holds the feature vectors of several generations for one
    track; disjoint pairs are drawn inside each entry.
    """
    if not per_track_sets:
        raise ParameterError("no per-track feature sets")
    rng = generator(seed, "multimodality")
    scores = []
    for vectors in per_track_sets:
        vectors = vectors.vectors if isinstance(vectors, FeatureSet) else np.asarray(vectors)
        g = vectors.shape[0]
        if g < 2:
            raise ParameterError("each track needs at least 2 generations")
        order = rng.permutation(g)
        half = g // 2
        a = vectors[order[:half]]
        b = vectors[order[half:2 * half]]
        scores.append(np.linalg.norm(a - b, axis=1).mean())
    return float(np.mean(scores))


# -- reconstruction errors --------------------------------------------------------------


def mpjpe(gt_positions: np.ndarray, rec_positions: np.ndarray,
          joint_subset: str = "all") -> float:
    """Mean per-joint position error in millimeters; inputs are meters."""
    gt = np.asarray(gt_positions, dtype=np.float64)
    rec = np.asarray(rec_positions, dtype=np.float64)
    if gt.shape != rec.shape:
        raise ShapeError(f"position shapes differ: {gt.shape} vs {rec.shape}")
    if joint_subset == "body":
        gt, rec = gt[:, slice(*BODY_JOINT_RANGE)], rec[:, slice(*BODY_JOINT_RANGE)]
    elif joint_subset == "hands":
        gt, rec = gt[:, slice(*HAND_JOINT_RANGE)], rec[:, slice(*HAND_JOINT_RANGE)]
    elif joint_subset != "all":
        raise ParameterError(f"unknown joint subset {joint_subset!r}")
    err = np.linalg.norm(gt - rec, axis=-1)
    return float(err.mean() * 1000.0)


def fve(gt_vertices: np.ndarray, rec_vertices: np.ndarray) -> float:
    """Per-frame Frobenius distance between vertex sets, averaged over frames."""
    gt = np.asarray(gt_vertices, dtype=np.float64)
    rec = np.asarray(rec_vertices, dtype=np.float64)
    if gt.shape != rec.shape:
        raise ShapeError(f"vertex shapes differ: {gt.shape} vs {rec.shape}")
    per_frame = np.sqrt(((gt - rec) ** 2).sum(axis=tuple(range(1, gt.ndim))))
    return float(per_frame.mean())


# -- learned feature extractor ------------------------------------------------------------


@dataclass
class ExtractorConfig:
    channels: str = "whole"        # "whole" (723) or "hand" (360)
    feature_dim: int = 32
    hidden: int = 32
    steps: int = 150
    batch: int = 16
    lr: float = 1e-3
    warmup_steps: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.channels not in ("whole", "hand"):
            raise ParameterError(f"ExtractorConfig.channels must be 'whole' or 'hand', "
                                 f"got {self.channels!r}")
        check_minimums(self, batch=1)

    def to_dict(self) -> dict:
        return asdict(self)


class MotionFeatureExtractor(nn.Module):
    """Conv auto-encoder; the pooled bottleneck is the feature vector."""

    def __init__(self, config: ExtractorConfig):
        super().__init__()
        self.config = config
        spans = default_spans()
        self.channel_idx = (np.arange(FRAME_WIDTH) if config.channels == "whole"
                            else spans.indices("hand"))
        c_in = self.channel_idx.size
        rng = generator(config.seed, "extractor-init")
        h = config.hidden
        self.enc0 = nn.Conv1d(c_in, h, 3, rng, padding=1)
        self.enc1 = nn.Conv1d(h, h, 4, rng, stride=2, padding=1)
        self.enc2 = nn.Conv1d(h, h, 4, rng, stride=2, padding=1)
        self.to_feat = nn.Linear(h, config.feature_dim, rng)
        self.from_feat = nn.Linear(config.feature_dim, h, rng)
        self.dec0 = nn.Conv1d(h, h, 3, rng, padding=1)
        self.dec1 = nn.Conv1d(h, c_in, 3, rng, padding=1)
        self.mean = np.zeros(c_in)
        self.std = np.ones(c_in)
        self.trained = False

    @property
    def extractor_id(self) -> str:
        return f"conv-ae/{self.config.channels}/{self.config.feature_dim}/seed{self.config.seed}"

    def encode_batch(self, frames: np.ndarray) -> Tensor:
        if frames.shape[1] < 4:  # the two stride-2 convs leave one step to pool from 4
            raise TooShortError(f"a clip of {frames.shape[1]} frames is too short for the "
                                f"feature extractor, which needs at least 4")
        x = (frames[:, :, self.channel_idx] - self.mean) / self.std
        h = self.enc0(Tensor(x.transpose(0, 2, 1))).gelu()
        h = self.enc1(h).gelu()
        h = self.enc2(h).gelu()
        return self.to_feat(h.mean(axis=2))

    def reconstruct(self, feat: Tensor, n_down: int) -> Tensor:
        h = self.from_feat(feat)  # (B, hidden)
        h = h.reshape(h.shape[0], -1, 1) + Tensor(np.zeros((1, 1, n_down)))
        h = self.dec0(h).gelu().upsample_repeat(4)
        return self.dec1(h)

    def buffers(self) -> dict[str, tuple[object, str]]:
        return {"norm.mean": (self, "mean"), "norm.std": (self, "std")}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        super().load_state(arrays)
        self.trained = True


def _check_frame_width(frames_list) -> None:
    """ShapeError naming the width unless every clip's frames are FRAME_WIDTH wide."""
    for frames in frames_list:
        if np.shape(frames)[-1] != FRAME_WIDTH:
            raise ShapeError(f"motion frames are {np.shape(frames)[-1]} wide, "
                             f"the feature extractor takes {FRAME_WIDTH}")


def train_extractor(frames_list: list, config: ExtractorConfig,
                    log: list | None = None) -> MotionFeatureExtractor:
    frames_list = list(frames_list)
    if not frames_list:
        raise ParameterError("empty training set")
    check_same_length("motion clips", frames_list)
    _check_frame_width(frames_list)
    model = MotionFeatureExtractor(config)
    stack = np.stack(frames_list)
    # the channel copy is a temporary: it is freed once the statistics are fitted
    model.mean, model.std = nn.channel_stats(
        stack[:, :, model.channel_idx].reshape(-1, model.channel_idx.size))
    opt = nn.AdamW(model.parameters(), lr=config.lr)
    rng = generator(config.seed, "extractor-batches")
    n = stack.shape[0]
    for step in range(config.steps):
        idx = rng.choice(n, size=min(config.batch, n), replace=False)
        batch = stack[idx]
        feat = model.encode_batch(batch)
        n_frames = batch.shape[1] - batch.shape[1] % 4
        rec = model.reconstruct(feat, n_frames // 4)
        target = (batch[:, :n_frames, model.channel_idx] - model.mean) / model.std
        loss = ((rec.transpose(0, 2, 1) - Tensor(target)) ** 2.0).mean()
        if not np.isfinite(loss.data):
            raise TrainingFailureError("extractor loss diverged", step)
        model.zero_grad()
        loss.backward()
        opt.step(lr=nn.warmup_lr(step, config.lr, config.warmup_steps))
        if log is not None:
            log.append({"step": step, "loss": float(loss.data)})
    model.trained = True
    return model


@nn.no_grad()
def motion_features(extractor: MotionFeatureExtractor, seqs: list) -> FeatureSet:
    """Feature vectors for a list of MotionSequence or (T, 723) arrays."""
    if not extractor.trained:
        raise MissingCheckpointError("feature extractor has not been trained or loaded")
    frames = [s.data if isinstance(s, MotionSequence) else np.asarray(s) for s in seqs]
    _check_frame_width(frames)
    vecs = [extractor.encode_batch(f[None]).data[0] for f in frames]
    return FeatureSet(np.stack(vecs), extractor.extractor_id)


def save_extractor(path, model: MotionFeatureExtractor) -> None:
    from .io import save_checkpoint

    save_checkpoint(path, "extractor", model.config.to_dict(), model.config.seed, model.state())


def load_extractor(path) -> MotionFeatureExtractor:
    from .io import load_checkpoint

    kind, config, _seed, arrays = load_checkpoint(path)
    if kind != "extractor":
        raise ParameterError(f"{path}: expected an extractor checkpoint, got {kind!r}")
    model = MotionFeatureExtractor(read_config(ExtractorConfig, "extractor", config))
    model.load_state(arrays)
    return model
