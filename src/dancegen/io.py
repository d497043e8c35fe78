"""On-disk formats.

SDM1  motion file: magic "SDM1", u32 fps, u32 frames, u32 channels (723),
      then frame-major little-endian float32.
SMT1  track file: magic "SMT1", u32 feature rate, u32 rows, u32 channels (35),
      float32 rows, then a trailer with beat times (f64), genre, emotion and
      duration so a track round-trips from one file.
SNC1  checkpoint container: magic "SNC1", u32 version, u64 header length,
      JSON header (kind, config echo, seed, array directory), raw array bytes.

Manifests and skeleton/rig files are human-readable JSON.

Motion, track, checkpoint and manifest files are written to a temporary file
beside the target and renamed onto it only once complete, so an interrupted
write leaves either the old file or none, never a truncated one (the rename
is atomic; the data is not fsynced, so this guards against a crash of the
process, not against power loss).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import MalformedSequenceError, ParameterError, ShapeError
from .motion import FRAME_WIDTH, BlendshapeRig, MotionSequence, Skeleton

MOTION_MAGIC = b"SDM1"
TRACK_MAGIC = b"SMT1"
CKPT_MAGIC = b"SNC1"
CKPT_VERSION = 1
TRACK_CHANNELS = 35


@contextlib.contextmanager
def _replace_when_done(path: str | Path):
    """Binary file handle for `path` that only replaces `path` when the block
    completes; on an exception the partial temporary file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read(f, count: int, path, error: type, what: str) -> bytes:
    """Exactly `count` bytes from `f`; a short read raises `error`."""
    data = f.read(count)
    if len(data) != count:
        raise error(f"{path}: truncated {what} ({len(data)} of {count} bytes)")
    return data


def write_motion(path: str | Path, seq: MotionSequence) -> None:
    data = seq.data.astype("<f4")
    with _replace_when_done(path) as f:
        f.write(MOTION_MAGIC)
        f.write(struct.pack("<III", seq.fps, seq.frames, FRAME_WIDTH))
        f.write(data.tobytes(order="C"))


def read_motion(path: str | Path) -> MotionSequence:
    with open(path, "rb") as f:
        if f.read(4) != MOTION_MAGIC:
            raise MalformedSequenceError(f"{path}: not an SDM1 file")
        fps, frames, channels = struct.unpack(
            "<III", _read(f, 12, path, MalformedSequenceError, "SDM1 header"))
        if channels != FRAME_WIDTH:
            raise MalformedSequenceError(f"{path}: channels={channels}, expected {FRAME_WIDTH}")
        data = np.frombuffer(_read(f, 4 * frames * channels, path, MalformedSequenceError,
                                   "SDM1 frames"), dtype="<f4")
    return MotionSequence(data.reshape(frames, channels).astype(np.float64), fps=fps)


def write_track(path: str | Path, track) -> None:
    feats = track.features.astype("<f4")
    rows, channels = feats.shape
    with _replace_when_done(path) as f:
        f.write(TRACK_MAGIC)
        f.write(struct.pack("<III", int(track.feature_rate), rows, channels))
        f.write(feats.tobytes(order="C"))
        beats = np.asarray(track.beat_times, dtype="<f8")
        f.write(struct.pack("<I", beats.size))
        f.write(beats.tobytes())
        f.write(struct.pack("<IId", track.genre_id, track.emotion_id, track.duration))


def read_track(path: str | Path):
    from .synth import MusicTrack  # local import to avoid a cycle

    with open(path, "rb") as f:
        if f.read(4) != TRACK_MAGIC:
            raise MalformedSequenceError(f"{path}: not an SMT1 file")
        def read(count: int, what: str) -> bytes:
            return _read(f, count, path, MalformedSequenceError, f"SMT1 {what}")

        rate, rows, channels = struct.unpack("<III", read(12, "header"))
        if channels != TRACK_CHANNELS:
            raise MalformedSequenceError(f"{path}: channels={channels}, expected {TRACK_CHANNELS}")
        feats = np.frombuffer(read(4 * rows * channels, "features"), dtype="<f4")
        feats = feats.reshape(rows, channels)
        (n_beats,) = struct.unpack("<I", read(4, "beat count"))
        beats = np.frombuffer(read(8 * n_beats, "beats"), dtype="<f8")
        genre, emotion, duration = struct.unpack("<IId", read(16, "trailer"))
    return MusicTrack(
        features=feats.astype(np.float64),
        beat_times=beats.copy(),
        genre_id=genre,
        emotion_id=emotion,
        duration=duration,
        feature_rate=rate,
    )


# -- checkpoint container ------------------------------------------------------


def save_checkpoint(path: str | Path, kind: str, config: dict, seed: int,
                    arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        blob = arr.tobytes()
        entries.append(
            {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape),
             "offset": offset, "nbytes": len(blob)}
        )
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(
        {"kind": kind, "config": config, "seed": seed, "arrays": entries},
        sort_keys=True,
    ).encode("utf-8")
    with _replace_when_done(path) as f:
        f.write(CKPT_MAGIC)
        f.write(struct.pack("<IQ", CKPT_VERSION, len(header)))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path: str | Path) -> tuple[str, dict, int, dict[str, np.ndarray]]:
    """Read an SNC1 container; a truncated or inconsistent file raises ShapeError."""
    with open(path, "rb") as f:
        if f.read(4) != CKPT_MAGIC:
            raise ShapeError(f"{path}: not a checkpoint container")
        version, header_len = struct.unpack("<IQ", _read(f, 12, path, ShapeError,
                                                         "checkpoint header"))
        if version != CKPT_VERSION:
            raise ShapeError(f"{path}: unsupported checkpoint version {version}")
        raw_header = _read(f, header_len, path, ShapeError, "checkpoint header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
            raise ShapeError(f"{path}: malformed checkpoint header: {e}") from None
        payload = f.read()
    arrays = {}
    for entry in header["arrays"]:
        end = entry["offset"] + entry["nbytes"]
        if end > len(payload):
            raise ShapeError(f"{path}: truncated checkpoint payload: array {entry['name']} "
                             f"ends at byte {end} of {len(payload)}")
        dtype = np.dtype(entry["dtype"])
        if entry["nbytes"] != dtype.itemsize * int(np.prod(entry["shape"])):
            raise ShapeError(f"{path}: array {entry['name']} holds {entry['nbytes']} bytes, "
                             f"not a {dtype} array of shape {tuple(entry['shape'])}")
        raw = payload[entry["offset"]:end]
        arrays[entry["name"]] = np.frombuffer(raw, dtype=dtype).reshape(entry["shape"]).copy()
    return header["kind"], header["config"], header["seed"], arrays


# -- human-readable structured text -------------------------------------------


def write_skeleton(path: str | Path, skel: Skeleton) -> None:
    doc = {
        "kind": "skeleton",
        "joint_count": int(skel.parent_index.size),
        "parent_index": skel.parent_index.tolist(),
        "rest_offset": skel.rest_offset.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def read_skeleton(path: str | Path) -> Skeleton:
    doc = json.loads(Path(path).read_text())
    return Skeleton(np.array(doc["parent_index"]), np.array(doc["rest_offset"]))


def write_rig(path: str | Path, rig: BlendshapeRig) -> None:
    doc = {
        "kind": "blendshape_rig",
        "base_vertices": rig.base_vertices.tolist(),
        "deltas": rig.deltas.tolist(),
        "transform": None if rig.transform is None else rig.transform.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=1))


def read_rig(path: str | Path) -> BlendshapeRig:
    doc = json.loads(Path(path).read_text())
    transform = doc["transform"]
    return BlendshapeRig(
        np.array(doc["base_vertices"]),
        np.array(doc["deltas"]),
        None if transform is None else np.array(transform),
    )


def write_manifest(path: str | Path, manifest: dict) -> None:
    text = json.dumps(manifest, indent=1, sort_keys=True)
    with _replace_when_done(path) as f:
        f.write(text.encode("utf-8"))


def read_manifest(path: str | Path) -> dict:
    """The JSON object at `path`; anything else raises ParameterError."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ParameterError(f"{path}: not a JSON manifest ({e})") from None
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: a manifest must be a JSON object")
    return doc


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- corpus ---------------------------------------------------------------------


def save_corpus(samples, out_dir: str | Path, config_echo: dict) -> Path:
    """Write SDM1/SMT1 files plus a JSON manifest; returns the manifest path."""
    out = Path(out_dir)
    (out / "motion").mkdir(parents=True, exist_ok=True)
    (out / "tracks").mkdir(parents=True, exist_ok=True)
    rows = []
    for s in samples:
        motion_rel = f"motion/{s.sample_id}.sdm1"
        track_rel = f"tracks/{s.sample_id}.smt1"
        write_motion(out / motion_rel, s.motion)
        write_track(out / track_rel, s.track)
        rows.append({
            "id": s.sample_id, "split": s.split, "genre_id": s.track.genre_id,
            "emotion_id": s.track.emotion_id, "seed": s.seed, "bpm": s.bpm,
            "motion": motion_rel, "track": track_rel,
        })
    manifest = {"kind": "corpus", "config": config_echo, "samples": rows}
    path = out / "manifest.json"
    write_manifest(path, manifest)
    return path


def load_corpus(manifest_path: str | Path):
    """Read a corpus manifest back into PairedSample objects."""
    from .synth import PairedSample

    manifest = read_manifest(manifest_path)
    if manifest.get("kind") != "corpus":
        raise ParameterError(f"{manifest_path}: not a corpus manifest "
                             f"(kind {manifest.get('kind')!r})")
    root = Path(manifest_path).parent
    samples = []
    for row in manifest["samples"]:
        samples.append(PairedSample(
            sample_id=row["id"],
            track=read_track(root / row["track"]),
            motion=read_motion(root / row["motion"]),
            split=row["split"],
            seed=row["seed"],
            bpm=row["bpm"],
        ))
    return samples, manifest
