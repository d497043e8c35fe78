"""Holistic motion representation: frame layout, part split, skeleton, blendshapes.

Each frame is a 723-float vector laid out as
    root(4) | joint positions(153) | joint 6d rotations(306) |
    joint velocities(156) | foot contacts(4) | face expression(100)
with 52 joints total (22 body, indices 0..21; 30 hand, indices 22..51).
Joint positions/rotations cover joints 1..51, velocities cover 0..51.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityError,
    DegenerateFitError,
    MalformedSequenceError,
    NumericInputError,
)

JOINT_COUNT = 52
BODY_JOINTS = 22          # indices 0..21, root is 0
HAND_JOINTS = 30          # indices 22..51
FRAME_WIDTH = 723
FACE_DIM = 100
DEFAULT_FPS = 30
FOOT_JOINTS = (7, 8, 10, 11)  # ankles and feet, contact channels in this order

# channel offsets of the frame layout
ROOT = slice(0, 4)                    # yaw rate, vx, vz, height
JP = slice(4, 157)                    # local positions, joints 1..51
JR = slice(157, 463)                  # 6d rotations, joints 1..51
JV = slice(463, 619)                  # velocities, joints 0..51
CONTACT = slice(619, 623)
FACE = slice(623, 723)

BODY_WIDTH = 263
HAND_WIDTH = 360


@dataclass(frozen=True)
class PartSpans:
    """Channel ranges (start, stop) owned by each part; ranges need not touch."""

    body: tuple[tuple[int, int], ...]
    hand: tuple[tuple[int, int], ...]
    face: tuple[tuple[int, int], ...]

    def __post_init__(self):
        covered = np.zeros(FRAME_WIDTH, dtype=int)
        for ranges in (self.body, self.hand, self.face):
            for a, b in ranges:
                covered[a:b] += 1
        if not np.all(covered == 1):
            raise MalformedSequenceError("part spans must partition all 723 channels")
        if self.width(self.body) != BODY_WIDTH or self.width(self.hand) != HAND_WIDTH:
            raise MalformedSequenceError("part spans have wrong widths")

    @staticmethod
    def width(ranges: tuple[tuple[int, int], ...]) -> int:
        return sum(b - a for a, b in ranges)

    def indices(self, part: str) -> np.ndarray:
        ranges = getattr(self, part)
        return np.concatenate([np.arange(a, b) for a, b in ranges])


def default_spans() -> PartSpans:
    """Body keeps root, body-joint channels and contacts; hands and face the rest."""
    hand_jp = (JP.start + 3 * (BODY_JOINTS - 1), JP.stop)
    hand_jr = (JR.start + 6 * (BODY_JOINTS - 1), JR.stop)
    hand_jv = (JV.start + 3 * BODY_JOINTS, JV.stop)
    return PartSpans(
        body=((0, hand_jp[0]), (JR.start, hand_jr[0]), (JV.start, hand_jv[0]),
              (CONTACT.start, CONTACT.stop)),
        hand=(hand_jp, hand_jr, hand_jv),
        face=((FACE.start, FACE.stop),),
    )


@dataclass
class MotionSequence:
    """Frames x 723 channels plus the frame rate."""

    data: np.ndarray
    fps: int = DEFAULT_FPS

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[1] != FRAME_WIDTH:
            raise MalformedSequenceError(
                f"expected (frames, {FRAME_WIDTH}), got {self.data.shape}"
            )
        if self.data.shape[0] < 4:
            raise MalformedSequenceError("a sequence needs at least 4 frames")

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def duration(self) -> float:
        return self.frames / self.fps


def validate_sequence(seq: MotionSequence, strict: bool = False) -> None:
    """Check frame invariants; `strict` also enforces binary contacts and rotations."""
    if not np.all(np.isfinite(seq.data)):
        raise NumericInputError("sequence contains NaN or inf")
    if strict:
        contacts = seq.data[:, CONTACT]
        if not np.all((contacts == 0.0) | (contacts == 1.0)):
            raise MalformedSequenceError("foot contacts must be binary")
        rots = seq.data[:, JR].reshape(seq.frames, JOINT_COUNT - 1, 6)
        mats = rot6d_to_matrix(rots)
        dets = np.linalg.det(mats)
        if not np.all(np.abs(dets - 1.0) < 1e-5):
            raise MalformedSequenceError("rotation blocks must orthonormalize to det +1")


def split_parts(seq: MotionSequence, spans: PartSpans | None = None):
    """Slice a sequence into (body, hands, face) channel groups."""
    spans = spans or default_spans()
    return tuple(seq.data[:, spans.indices(part)] for part in ("body", "hand", "face"))


def join_parts(body: np.ndarray, hand: np.ndarray, face: np.ndarray,
               spans: PartSpans | None = None, fps: int = DEFAULT_FPS) -> MotionSequence:
    """Inverse of split_parts: scatter part channels back to the full layout."""
    spans = spans or default_spans()
    parts = {"body": np.asarray(body), "hand": np.asarray(hand), "face": np.asarray(face)}
    n = parts["body"].shape[0]
    full = np.zeros((n, FRAME_WIDTH))
    for name, arr in parts.items():
        idx = spans.indices(name)
        if arr.shape != (n, idx.size):
            raise MalformedSequenceError(f"{name} slice has width {arr.shape}, wanted {idx.size}")
        full[:, idx] = arr
    return MotionSequence(full, fps=fps)


# -- skeleton and global recovery --------------------------------------------


@dataclass(frozen=True)
class Skeleton:
    parent_index: np.ndarray          # (52,), parent of root is -1
    rest_offset: np.ndarray           # (52, 3) meters

    def __post_init__(self):
        if self.parent_index.shape != (JOINT_COUNT,) or self.rest_offset.shape != (JOINT_COUNT, 3):
            raise MalformedSequenceError("skeleton arrays have wrong shapes")
        if self.parent_index[0] != -1 or np.any(self.rest_offset[0] != 0):
            raise MalformedSequenceError("root must have parent -1 and zero offset")
        for j in range(1, JOINT_COUNT):
            if not 0 <= self.parent_index[j] < j:
                raise MalformedSequenceError("parent_index must form a tree rooted at 0")


def default_skeleton() -> Skeleton:
    """Generic 52-joint rig: 22-joint body chain plus two 15-joint hands."""
    parents = np.full(JOINT_COUNT, -1, dtype=np.int64)
    offsets = np.zeros((JOINT_COUNT, 3))
    # body: pelvis 0; legs 1..2 -> hips, 4..5 knees, 7..8 ankles, 10..11 feet;
    # spine 3,6,9; neck 12, head 15; collars 13..14; shoulders 16..17;
    # elbows 18..19; wrists 20 (left), 21 (right)
    body_parents = [-1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19]
    body_offsets = [
        (0.0, 0.0, 0.0), (0.09, -0.07, 0.0), (-0.09, -0.07, 0.0), (0.0, 0.11, 0.0),
        (0.0, -0.38, 0.0), (0.0, -0.38, 0.0), (0.0, 0.13, 0.0), (0.0, -0.40, 0.0),
        (0.0, -0.40, 0.0), (0.0, 0.06, 0.0), (0.0, -0.05, 0.12), (0.0, -0.05, 0.12),
        (0.0, 0.21, 0.0), (0.08, 0.12, 0.0), (-0.08, 0.12, 0.0), (0.0, 0.07, 0.0),
        (0.11, 0.0, 0.0), (-0.11, 0.0, 0.0), (0.26, 0.0, 0.0), (-0.26, 0.0, 0.0),
        (0.25, 0.0, 0.0), (-0.25, 0.0, 0.0),
    ]
    parents[:BODY_JOINTS] = body_parents
    offsets[:BODY_JOINTS] = body_offsets
    # hands: 5 fingers x 3 joints each, chained off the wrists
    for side, wrist, base in ((1.0, 20, 22), (-1.0, 21, 37)):
        for finger in range(5):
            root = base + 3 * finger
            parents[root] = wrist
            parents[root + 1] = root
            parents[root + 2] = root + 1
            spread = (finger - 2) * 0.018
            offsets[root] = (side * 0.09, 0.0, spread)
            offsets[root + 1] = (side * 0.035, 0.0, 0.0)
            offsets[root + 2] = (side * 0.025, 0.0, 0.0)
    return Skeleton(parents, offsets)


def rot6d_to_matrix(r6: np.ndarray) -> np.ndarray:
    """Gram-Schmidt decode of (..., 6) into (..., 3, 3) rotation matrices."""
    r6 = np.asarray(r6, dtype=np.float64)
    a = r6[..., 0:3]
    b = r6[..., 3:6]
    x = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = b - np.sum(x * b, axis=-1, keepdims=True) * x
    y = b / np.linalg.norm(b, axis=-1, keepdims=True)
    z = np.cross(x, y)
    return np.stack([x, y, z], axis=-1)


def matrix_to_rot6d(mat: np.ndarray) -> np.ndarray:
    """First two columns of (..., 3, 3), flattened to (..., 6)."""
    mat = np.asarray(mat, dtype=np.float64)
    return np.concatenate([mat[..., :, 0], mat[..., :, 1]], axis=-1)


def yaw_matrix(yaw: np.ndarray) -> np.ndarray:
    """Rotation about +Y for each yaw angle; shape (..., 3, 3)."""
    c, s = np.cos(yaw), np.sin(yaw)
    zero = np.zeros_like(c)
    one = np.ones_like(c)
    return np.stack(
        [
            np.stack([c, zero, s], axis=-1),
            np.stack([zero, one, zero], axis=-1),
            np.stack([-s, zero, c], axis=-1),
        ],
        axis=-2,
    )


def recover_root_trajectory(seq: MotionSequence) -> tuple[np.ndarray, np.ndarray]:
    """Integrate root channels into world positions (N, 3) and yaw (N,).

    Channel k holds the increment from frame k to k+1, so frame 0 sits at the
    XZ origin with zero yaw and frame k accumulates the first k increments.
    The XZ velocity is expressed in the root frame and rotated into the world
    by the current yaw before summing.
    """
    if not np.all(np.isfinite(seq.data)):
        raise NumericInputError("sequence contains NaN or inf")
    yaw_rate = seq.data[:, 0]
    vel_local = seq.data[:, 1:3]
    height = seq.data[:, 3]
    yaw = np.concatenate([[0.0], np.cumsum(yaw_rate)[:-1]])
    c, s = np.cos(yaw), np.sin(yaw)
    wx = c * vel_local[:, 0] + s * vel_local[:, 1]
    wz = -s * vel_local[:, 0] + c * vel_local[:, 1]
    x = np.concatenate([[0.0], np.cumsum(wx)[:-1]])
    z = np.concatenate([[0.0], np.cumsum(wz)[:-1]])
    pos = np.stack([x, height, z], axis=-1)
    return pos, yaw


def pose_positions(seq: MotionSequence) -> np.ndarray:
    """Joint positions in the root frame, (N, 52, 3): root at (0, height, 0),
    other joints offset by their local position channels.  Unlike the global
    recovery this does not integrate root velocities, so reconstruction
    errors stay per-frame instead of accumulating along the clip."""
    root = np.zeros((seq.frames, 1, 3))
    root[:, 0, 1] = seq.data[:, 3]
    local = seq.data[:, JP].reshape(seq.frames, JOINT_COUNT - 1, 3)
    return np.concatenate([root, root + local], axis=1)


def recover_global_positions(seq: MotionSequence) -> np.ndarray:
    """World positions (N, 52, 3); local joint offsets are root-relative."""
    root_pos, yaw = recover_root_trajectory(seq)
    local = seq.data[:, JP].reshape(seq.frames, JOINT_COUNT - 1, 3)
    rot = yaw_matrix(yaw)  # (N, 3, 3)
    world = np.einsum("nij,nkj->nki", rot, local) + root_pos[:, None, :]
    out = np.concatenate([root_pos[:, None, :], world], axis=1)
    if not np.all(np.isfinite(out)):
        raise NumericInputError("recovered positions are not finite")
    return out


# -- blendshapes --------------------------------------------------------------

BLENDSHAPE_COUNT = 52
EXPRESSION_PARAMS = 103  # 100 expression + 3 jaw


@dataclass
class BlendshapeRig:
    base_vertices: np.ndarray                 # (V0, 3)
    deltas: np.ndarray                        # (52, V0, 3)
    transform: np.ndarray | None = None       # (52, 103), set by fitting

    def __post_init__(self):
        self.base_vertices = np.asarray(self.base_vertices, dtype=np.float64)
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        if self.deltas.shape[0] != BLENDSHAPE_COUNT:
            raise ArityError(f"need {BLENDSHAPE_COUNT} delta shapes, got {self.deltas.shape[0]}")
        if self.deltas.shape[1:] != self.base_vertices.shape:
            raise MalformedSequenceError("delta shapes must match the base mesh")
        if self.transform is not None and self.transform.shape != (BLENDSHAPE_COUNT, EXPRESSION_PARAMS):
            raise MalformedSequenceError("transform must be 52x103")


def apply_blendshapes(weights: np.ndarray, rig: BlendshapeRig) -> np.ndarray:
    """base + sum_j w_j * delta_j."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (BLENDSHAPE_COUNT,):
        raise ArityError(f"expected {BLENDSHAPE_COUNT} weights, got {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise NumericInputError("weights must be finite")
    return rig.base_vertices + np.tensordot(weights, rig.deltas, axes=(0, 0))


def fit_blendshape_transform(weight_seqs: np.ndarray, target_params: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares fit of the 52x103 map from blendshape weights to face
    parameters; returns (W, residual rms)."""
    A = np.asarray(weight_seqs, dtype=np.float64)
    Y = np.asarray(target_params, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != BLENDSHAPE_COUNT:
        raise ArityError(f"weight samples must be (n, {BLENDSHAPE_COUNT})")
    if Y.shape != (A.shape[0], EXPRESSION_PARAMS):
        raise ArityError(f"targets must be (n, {EXPRESSION_PARAMS})")
    rank = np.linalg.matrix_rank(A)
    if rank < BLENDSHAPE_COUNT:
        raise DegenerateFitError(f"weight samples have rank {rank} < {BLENDSHAPE_COUNT}", rank)
    W, _, _, _ = np.linalg.lstsq(A, Y, rcond=None)
    residual = float(np.sqrt(np.mean((A @ W - Y) ** 2)))
    return W, residual
