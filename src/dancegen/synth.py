"""Procedural music-dance corpus with planted structure.

Tracks are synthetic spectral features (no audio): 32 genre-keyed band
energies, an onset envelope peaking at the beat grid, a tempo channel and an
emotion channel.  Dances are sums of sinusoidal joint oscillators driven by a
warped beat clock whose rate vanishes at every beat, so kinematic beats land
on musical beats by construction.  Hand motion is a fixed genre-keyed linear
function of the body oscillation, and the face stays near the centroid of the
track's emotion.  Everything is seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, fits
from .motion import (
    BODY_JOINTS,
    CONTACT,
    DEFAULT_FPS,
    FACE,
    FACE_DIM,
    FOOT_JOINTS,
    FRAME_WIDTH,
    JOINT_COUNT,
    JP,
    JR,
    JV,
    MotionSequence,
    default_skeleton,
    matrix_to_rot6d,
    yaw_matrix,
)
from .nn.rng import derive_seed, generator

GENRE_COUNT = 15
EMOTION_COUNT = 7
EMOTIONS = tuple(range(EMOTION_COUNT))  # the emotion ids a corpus draws from
TRACK_FEATURE_DIM = 35     # 32 bands + onset + tempo + emotion
_VOCAB_KEY = 0x5EED        # fixed key: genre vocabularies are corpus-independent

# the seven emotion anchors in expression space: orthonormal one-hot rows,
# spread across channels so mixtures stay easy to read in plots
EMOTION_CENTROIDS = np.zeros((EMOTION_COUNT, FACE_DIM))
for _e in range(EMOTION_COUNT):
    EMOTION_CENTROIDS[_e, 14 * _e] = 1.0
EMOTION_CENTROIDS.setflags(write=False)


@dataclass
class MusicTrack:
    features: np.ndarray          # (rows, 35)
    beat_times: np.ndarray        # seconds, strictly increasing
    genre_id: int
    emotion_id: int
    duration: float               # seconds
    feature_rate: int = DEFAULT_FPS

    @property
    def rows(self) -> int:
        return self.features.shape[0]


@dataclass
class PairedSample:
    sample_id: str
    track: MusicTrack
    motion: MotionSequence
    split: str                    # train / val / test
    seed: int = 0
    bpm: float = 0.0


def generate_track(seed: int, duration_s: float = 8.0, bpm: float = 120.0,
                   genre_id: int = 0, emotion_id: int = 0,
                   feature_rate: int = DEFAULT_FPS) -> MusicTrack:
    if not 60.0 <= bpm <= 180.0:
        raise ParameterError(f"bpm {bpm} outside [60, 180]")
    if not 4.0 <= duration_s <= 30.0:
        raise ParameterError(f"duration {duration_s} outside [4, 30] s")
    if not 0 <= genre_id < GENRE_COUNT:
        raise ParameterError(f"genre_id {genre_id} outside [0, {GENRE_COUNT})")
    if not 0 <= emotion_id < EMOTION_COUNT:
        raise ParameterError(f"emotion_id {emotion_id} outside [0, {EMOTION_COUNT})")

    rng = generator(seed, "track")
    spacing = 60.0 / bpm
    count = int(np.ceil(duration_s / spacing - 1e-9))
    base = np.arange(count) * spacing
    beats = base + rng.uniform(-0.008, 0.008, size=count)
    beats = np.clip(beats, 0.0, duration_s - 1e-6)
    beats = np.maximum.accumulate(beats)  # jitter is far below spacing; keep monotone

    rows = int(round(duration_s * feature_rate))
    t = np.arange(rows) / feature_rate

    vocab = generator(_VOCAB_KEY, "music-genre", genre_id)
    level = vocab.uniform(0.2, 1.0, size=32)
    freq = vocab.uniform(0.05, 0.6, size=32)
    phase = vocab.uniform(0.0, 2 * np.pi, size=32)
    decay = vocab.uniform(0.1, 1.0, size=32)

    onset = np.zeros(rows)
    for b in beats:
        onset += np.exp(-((t - b) ** 2) / (2 * 0.03**2))
    onset = np.clip(onset, 0.0, 1.5)

    bands = level[None, :] * (0.6 + 0.4 * np.sin(2 * np.pi * freq[None, :] * t[:, None] + phase[None, :]))
    bands += 0.3 * onset[:, None] * decay[None, :]
    bands += 0.05 * rng.normal(size=(rows, 32))

    feats = np.concatenate(
        [
            bands,
            onset[:, None],
            np.full((rows, 1), bpm / 180.0),
            np.full((rows, 1), (emotion_id + 1) / EMOTION_COUNT),
        ],
        axis=1,
    )
    return MusicTrack(feats, beats, genre_id, emotion_id, float(duration_s), feature_rate)


def _beat_clock(beats: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Continuous beat index W(t), linear between beats, extrapolated outside."""
    idx = np.arange(len(beats), dtype=np.float64)
    w = np.interp(t, beats, idx)
    d0 = beats[1] - beats[0]
    dl = beats[-1] - beats[-2]
    before = t < beats[0]
    after = t > beats[-1]
    w[before] = (t[before] - beats[0]) / d0
    w[after] = idx[-1] + (t[after] - beats[-1]) / dl
    return w


def _warp(beats: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Beat clock with its rate pulled to zero at each beat: W - sin(2piW)/2pi."""
    w = _beat_clock(beats, t)
    return w - np.sin(2 * np.pi * w) / (2 * np.pi)


_HARMONICS = 2


@dataclass
class _GenreVocab:
    """Oscillator bank for one genre; same for every sample of that genre.

    Each body joint owns a small bank of harmonics (direction, frequency,
    phase); samples draw their own mixing weights over the bank, so a genre
    is a recognizable style while individual clips span a manifold wide
    enough that quantizers have real work to do.
    """

    body_dir: np.ndarray       # (21, H, 3)
    body_freq: np.ndarray      # (21, H) cycles per beat
    body_phase: np.ndarray     # (21, H)
    rot_axis: np.ndarray       # (51, 3) unit
    rot_amp: np.ndarray        # (51,)
    rot_freq: np.ndarray       # (51,)
    hand_map: np.ndarray       # (90, 63): hand offsets from body displacement
    drift_basis: np.ndarray    # (63, 8): low-rank pose-drift directions
    root_amp: np.ndarray       # (2,)
    root_freq: float
    yaw_amp: float


def _genre_vocab(genre_id: int, harmonics: int = _HARMONICS) -> _GenreVocab:
    rng = generator(_VOCAB_KEY, "dance-genre", genre_id)
    nb = BODY_JOINTS - 1
    body_dir = rng.uniform(0.02, 0.10, size=(nb, harmonics, 3))
    body_freq = rng.choice([0.5, 1.0, 1.0, 2.0], size=(nb, harmonics))
    body_phase = rng.uniform(0, 2 * np.pi, size=(nb, harmonics))
    axis = rng.normal(size=(JOINT_COUNT - 1, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    rot_amp = rng.uniform(0.1, 0.6, size=JOINT_COUNT - 1)
    rot_freq = rng.choice([0.5, 1.0, 2.0], size=JOINT_COUNT - 1)
    hand_map = rng.normal(size=(90, 63)) * (0.25 / np.sqrt(63))
    drift_basis = rng.normal(size=(63, 8)) * (0.04 / np.sqrt(8))
    root_amp = rng.uniform(0.05, 0.20, size=2)
    root_freq = float(rng.choice([0.25, 0.5]))
    yaw_amp = float(rng.uniform(0.05, 0.25))
    return _GenreVocab(body_dir, body_freq, body_phase, axis, rot_amp, rot_freq,
                       hand_map, drift_basis, root_amp, root_freq, yaw_amp)


def generate_dance(track: MusicTrack, seed: int, fps: int = DEFAULT_FPS,
                   drift_scale: float = 1.0, harmonics: int = _HARMONICS) -> MotionSequence:
    rng = generator(seed, "dance")
    vocab = _genre_vocab(track.genre_id, harmonics)
    n = int(round(track.duration * fps))
    t = np.arange(n) / fps
    w = _warp(track.beat_times, t)                      # (n,)

    skel = default_skeleton()
    rest = np.zeros((JOINT_COUNT, 3))
    for j in range(1, JOINT_COUNT):
        rest[j] = rest[skel.parent_index[j]] + skel.rest_offset[j]

    # body joints 1..21: per-sample mixtures over the genre's harmonic bank
    nb = BODY_JOINTS - 1
    weights = rng.uniform(0.2, 1.2, size=(nb, harmonics, 1))
    phase = vocab.body_phase + rng.uniform(0, 2 * np.pi, size=(nb, harmonics))
    osc = np.sin(2 * np.pi * vocab.body_freq[None] * w[:, None, None]
                 + phase[None])                          # (n, 21, H)
    body_disp = (osc[..., None] * (weights * vocab.body_dir)[None]).sum(axis=2)
    # slow per-sample pose drift along a genre-keyed low-rank basis, not
    # locked to the beat clock: spreads the corpus over a compact (~8-dim)
    # manifold that the quantizer stacks have to tile, while leaving the
    # beat-locked speed minima intact
    drift_amp = rng.uniform(0.5, 1.5, size=8)
    drift_freq = rng.uniform(0.15, 0.45, size=8)
    drift_phase = rng.uniform(0, 2 * np.pi, size=8)
    u = drift_amp[None, :] * np.sin(2 * np.pi * drift_freq[None, :] * t[:, None]
                                    + drift_phase[None, :])          # (n, 8)
    drift = (u @ vocab.drift_basis.T).reshape(n, nb, 3)
    body_disp = body_disp + drift_scale * drift
    body_local = rest[1:BODY_JOINTS][None, :, :] + body_disp

    # hands 22..51: a fixed linear function of the body displacement
    hand_disp = body_disp.reshape(n, -1) @ vocab.hand_map.T   # (n, 90)
    hand_local = rest[BODY_JOINTS:][None, :, :] + hand_disp.reshape(n, 30, 3)

    local = np.concatenate([body_local, hand_local], axis=1)  # (n, 51, 3)

    # rotations from per-joint axis-angle oscillators (always det +1)
    rot_phase = rng.uniform(0, 2 * np.pi, size=JOINT_COUNT - 1)
    angles = vocab.rot_amp[None, :] * np.sin(
        2 * np.pi * vocab.rot_freq[None, :] * w[:, None] + rot_phase[None, :]
    )                                                   # (n, 51)
    rots = _axis_angle_matrix(vocab.rot_axis, angles)   # (n, 51, 3, 3)
    r6 = matrix_to_rot6d(rots)                          # (n, 51, 6)

    # root trajectory, also locked to the warped clock
    yaw = vocab.yaw_amp * np.sin(2 * np.pi * 0.25 * w)
    root_xz = vocab.root_amp[None, :] * np.stack(
        [np.sin(2 * np.pi * vocab.root_freq * w), np.cos(2 * np.pi * vocab.root_freq * w)], axis=1
    )
    root_xz = root_xz - root_xz[0]
    height = 0.92 + 0.03 * np.sin(2 * np.pi * 0.5 * w)
    root_pos = np.stack([root_xz[:, 0], height, root_xz[:, 1]], axis=1)

    # increments stored at frame k take the pose from frame k to k+1
    yaw_rate = np.zeros(n)
    yaw_rate[:-1] = np.diff(yaw)
    world_step = np.zeros((n, 2))
    world_step[:-1] = np.diff(root_xz, axis=0)
    c, s = np.cos(yaw), np.sin(yaw)
    vel_local = np.stack(
        [c * world_step[:, 0] - s * world_step[:, 1],
         s * world_step[:, 0] + c * world_step[:, 1]], axis=1
    )

    # world positions and velocities for all 52 joints
    rot_y = yaw_matrix(yaw)
    world = np.einsum("nij,nkj->nki", rot_y, local) + root_pos[:, None, :]
    world_all = np.concatenate([root_pos[:, None, :], world], axis=1)
    jv = np.zeros((n, JOINT_COUNT, 3))
    jv[1:] = np.diff(world_all, axis=0)

    # foot contacts from foot-joint speed
    contacts = np.zeros((n, 4))
    for ci, joint in enumerate(FOOT_JOINTS):
        speed = np.linalg.norm(jv[:, joint], axis=1)
        contacts[:, ci] = (speed < 0.5 * (np.median(speed) + 1e-9)).astype(np.float64)

    face = EMOTION_CENTROIDS[track.emotion_id][None, :] + 0.04 * rng.normal(size=(n, FACE_DIM))

    frame = np.zeros((n, FRAME_WIDTH))
    frame[:, 0] = yaw_rate
    frame[:, 1:3] = vel_local
    frame[:, 3] = height
    frame[:, JP] = local.reshape(n, -1)
    frame[:, JR] = r6.reshape(n, -1)
    frame[:, JV] = jv.reshape(n, -1)
    frame[:, CONTACT] = contacts
    frame[:, FACE] = face
    return MotionSequence(frame, fps=fps)


def _axis_angle_matrix(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Rodrigues formula; axis (J, 3) unit, angles (n, J) -> (n, J, 3, 3)."""
    n, J = angles.shape
    u = np.broadcast_to(axis, (n, J, 3))
    c = np.cos(angles)[..., None, None]
    s = np.sin(angles)[..., None, None]
    eye = np.broadcast_to(np.eye(3), (n, J, 3, 3))
    outer = u[..., :, None] * u[..., None, :]
    cross = np.zeros((n, J, 3, 3))
    cross[..., 0, 1] = -u[..., 2]
    cross[..., 0, 2] = u[..., 1]
    cross[..., 1, 0] = u[..., 2]
    cross[..., 1, 2] = -u[..., 0]
    cross[..., 2, 0] = -u[..., 1]
    cross[..., 2, 1] = u[..., 0]
    return c * eye + s * cross + (1 - c) * outer


# -- corpus -------------------------------------------------------------------


@dataclass
class CorpusConfig:
    n_samples: int = 512
    seed: int = 0
    duration_s: float = 8.0
    fps: int = DEFAULT_FPS
    bpm_range: tuple[float, float] = (100.0, 140.0)
    genres: tuple[int, ...] = tuple(range(GENRE_COUNT))
    drift_scale: float = 1.0     # slow pose-drift amplitude multiplier
    harmonics: int = _HARMONICS  # oscillators per joint in the genre banks

    RETIRED = {"emotions": EMOTIONS}

    def __post_init__(self):
        genres, bpm = self.genres, self.bpm_range
        if not (isinstance(genres, tuple) and genres
                and all(fits(g, 0) and 0 <= g < GENRE_COUNT for g in genres)):
            raise ParameterError(f"CorpusConfig.genres must be a non-empty tuple of ints "
                                 f"in [0, {GENRE_COUNT}), got {genres!r}")
        if not (isinstance(bpm, tuple) and len(bpm) == 2
                and all(fits(b, 0.0) for b in bpm)
                and 60.0 <= bpm[0] <= bpm[1] <= 180.0):
            raise ParameterError(f"CorpusConfig.bpm_range must be two numbers lo, hi with "
                                 f"60 <= lo <= hi <= 180, generate_track's range, got {bpm!r}")


def _largest_remainder(quotas: np.ndarray, total: int) -> np.ndarray:
    base = np.floor(quotas).astype(int)
    short = total - base.sum()
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:short]] += 1
    return base


def _cover_all(alloc: np.ndarray, available: np.ndarray) -> np.ndarray:
    """Move slots so every group gets at least one, when the total allows."""
    alloc = alloc.copy()
    if alloc.sum() < alloc.size:
        return alloc
    for g in range(alloc.size):
        if alloc[g] == 0 and available[g] > 0:
            donor = int(np.argmax(alloc))
            if alloc[donor] > 1:
                alloc[donor] -= 1
                alloc[g] += 1
    return alloc


def make_corpus(config: CorpusConfig) -> list[PairedSample]:
    """Generate paired samples with a deterministic, genre-stratified 8:1:1 split."""
    if config.n_samples < 10:
        raise ParameterError("corpus needs at least 10 samples")
    samples: list[PairedSample] = []
    lo, hi = config.bpm_range
    for i in range(config.n_samples):
        seed_i = derive_seed(config.seed, "sample", i)
        rng = generator(seed_i, "draw")
        genre = config.genres[i % len(config.genres)]
        emotion = int(rng.choice(EMOTIONS))
        bpm = float(rng.uniform(lo, hi))
        track = generate_track(seed_i, config.duration_s, bpm, genre, emotion,
                               feature_rate=config.fps)
        motion = generate_dance(track, seed_i, fps=config.fps,
                                drift_scale=config.drift_scale,
                                harmonics=config.harmonics)
        samples.append(PairedSample(f"clip{i:05d}", track, motion, "train", seed_i, bpm))

    # 8:1:1 with per-genre largest-remainder allocation of the val/test quotas
    n = config.n_samples
    n_test = int(round(0.1 * n))
    n_val = int(round(0.1 * n))
    by_genre: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        by_genre.setdefault(s.track.genre_id, []).append(i)
    split_rng = generator(config.seed, "split")
    genres = sorted(by_genre)
    counts = np.array([len(by_genre[g]) for g in genres], dtype=np.float64)
    test_alloc = _cover_all(_largest_remainder(counts * n_test / n, n_test), counts)
    val_alloc = _cover_all(_largest_remainder(counts * n_val / n, n_val), counts - test_alloc)
    for gi, g in enumerate(genres):
        idx = np.array(by_genre[g])
        idx = idx[split_rng.permutation(len(idx))]
        for k in idx[:test_alloc[gi]]:
            samples[k].split = "test"
        for k in idx[test_alloc[gi]:test_alloc[gi] + val_alloc[gi]]:
            samples[k].split = "val"
    return samples


def split_of(samples: list[PairedSample], split: str) -> list[PairedSample]:
    return [s for s in samples if s.split == split]
