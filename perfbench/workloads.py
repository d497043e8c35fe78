"""The three benchmark workloads: set-up, the closed measurement loop and the
output checks.

Every workload is one client in a closed loop: it sends its next operation
when the previous one returned.  Inputs come from the workload seed; the
library receives only the generated tracks and clips.  A run measures whole
operations until `seconds` have passed and at least `min_ops` operations
(and, on library, `min_ops` queries) completed, so the 90th percentile
always has ten samples beyond it.

Model shapes are the desk profile of `RunConfig.desk_profile()`; only step
counts and training-set size are cut.  Inference cost depends on the shapes,
not the weights (generation always runs every unmasking round), so briefly
trained models time like fully trained ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from dancegen import generator as gen
from dancegen import io as dio
from dancegen import metrics as met
from dancegen import retrieval as ret
from dancegen import synth
from dancegen import tokenizer as tok
from dancegen.motion import FACE, FRAME_WIDTH
from dancegen.nn.rng import derive_seed
from dancegen.nn.rng import generator as seeded_rng
from dancegen.pipeline import RunConfig

from .spans import SpanRecorder
from .stats import percentile

K = 5  # retrieval depth, the `dancegen retrieve` default
# train stages in pipeline order with their step counts: about 100 steps
# that put the median step inside the tokenizer's steps and p90 inside the
# retrieval and generator steps, away from the boundaries between stages
TRAIN_STAGES = (("mmr-body", 12), ("mmr-whole", 12), ("hrvq", 24), ("magm", 12),
                ("extractor-whole", 20), ("extractor-hand", 20))


@dataclass(frozen=True)
class Scale:
    tiny: bool = False            # shrunken model shapes for the self-tests
    setup_repeats: int = 3        # set-up runs per process; setup_s is their median
    min_ops: int = 100
    setup_clips: int = 10         # corpus for the brief set-up training
    clip_s: float = 4.0           # clip length of the set-up and train corpora
    gen_tracks: int = 50          # each requested twice
    gallery: int = 16
    queries: int = 25             # per library cycle
    train_clips: int = 60         # 48 in the train split: one full retrieval batch


FULL = Scale()
TINY = Scale(tiny=True, setup_repeats=2, gen_tracks=10, gallery=6, queries=10, train_clips=20)


def run_config(seed: int, scale: Scale) -> RunConfig:
    cfg = RunConfig.desk_profile(seed=seed)
    if scale.tiny:
        r = dataclasses.replace
        cfg.hrvq = r(cfg.hrvq, codebook_size=32, code_dim=16, layers=2, hidden=8)
        cfg.mmr_body = r(cfg.mmr_body, hidden=8, decoder_layers=1, heads=2, batch=8)
        cfg.mmr_whole = r(cfg.mmr_whole, hidden=8, decoder_layers=1, heads=2, batch=8)
        cfg.magm = r(cfg.magm, codebook_size=32, code_dim=16, layers_v=2, width=16,
                     depth=1, res_depth=1, heads=2)
        cfg.extractor = r(cfg.extractor, hidden=8, feature_dim=8)
    return cfg.resolved()


def mixed_durations(count: int, rng: np.random.Generator, lo: float = 4.0,
                    hi: float = 16.0) -> np.ndarray:
    """Durations stratified over a log-uniform law on [lo, hi] seconds, in
    seeded order: every seed gets the same mix, so latency quantiles do not
    move with the seed."""
    q = (np.arange(count) + 0.5) / count
    return rng.permutation(np.round(lo * (hi / lo) ** q, 2))


def random_track(seed: int, duration: float, genres: tuple) -> synth.MusicTrack:
    rng = seeded_rng(seed, "perfbench-track")
    return synth.generate_track(seed, float(duration), float(rng.uniform(100.0, 140.0)),
                                int(rng.choice(genres)), int(rng.integers(0, synth.EMOTION_COUNT)))


def frames_digest(frames: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(frames, dtype="<f8").tobytes()).hexdigest()


# -- bookkeeping ------------------------------------------------------------------


@dataclass
class Outcome:
    """What a workload measured and checked."""
    setup_s: float = 0.0
    latencies: list = field(default_factory=list)    # seconds per operation, inf if failed
    frames: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)        # name -> (value, unit)
    facts: dict = field(default_factory=dict)
    forward_passes_per_clip: float = 0.0
    digest: object = field(default_factory=hashlib.sha256)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.latencies.append(math.inf)
        if len(self.failures) < 20:
            self.failures.append(message)

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "op_latency_p50_ms": 1e3 * percentile(self.latencies, 50),
            "op_latency_p90_ms": 1e3 * percentile(self.latencies, 90),
            "frames_per_s": self.frames / self.wall_s,
        }


def _describe(e: Exception) -> str:
    where = traceback.extract_tb(e.__traceback__)[-1]
    return f"{type(e).__name__}: {e} (at {Path(where.filename).name}:{where.lineno})"


def _op(out: Outcome, label: str, fn):
    """Run one operation; returns (result, seconds), or (None, None) after
    recording the exception as a failed operation."""
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        result = fn()
    except Exception as e:  # the loop keeps running and reports the failure
        out.fail(f"{label}: {_describe(e)}")
        return None, None
    return result, time.perf_counter() - t0


def _median_setup(scale: Scale, spans: SpanRecorder, build):
    """Run build() scale.setup_repeats times; keep the last result."""
    times, built = [], None
    for rep in range(scale.setup_repeats):
        spans.request = f"setup{rep}"
        built = None  # let the previous models go before building new ones
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    return built, statistics.median(times)


def _setup_corpus(cfg: RunConfig, scale: Scale, clips: int):
    corpus = dataclasses.replace(cfg.corpus, n_samples=clips, duration_s=scale.clip_s)
    return synth.split_of(synth.make_corpus(corpus), "train")


# -- generate ---------------------------------------------------------------------


def run_generate(seed: int, seconds: float, scale: Scale, work: Path,
                 spans: SpanRecorder) -> Outcome:
    """Serving: each request is generate() then write_motion(); every track is
    requested twice in a row with two generation seeds, as the pipeline's
    generate stage does for multimodality."""
    cfg = run_config(seed, scale)
    durations = mixed_durations(scale.gen_tracks, seeded_rng(seed, "perfbench-gen-durations"))
    schedule = [(i, derive_seed(cfg.generation.seed, "perfbench", i, g))
                for i in range(scale.gen_tracks) for g in range(2)]

    def build():
        train = _setup_corpus(cfg, scale, scale.setup_clips)
        frames = np.stack([s.motion.data for s in train])
        hrvq = tok.train_tokenizer(frames, dataclasses.replace(cfg.hrvq, steps=1))
        pairs = ([s.motion.data for s in train], [s.track.features for s in train])
        mmr_body = ret.train_retrieval(*pairs, dataclasses.replace(cfg.mmr_body, steps=1))
        mmr_whole = ret.train_retrieval(*pairs, dataclasses.replace(cfg.mmr_whole, steps=1))
        magm = gen.train_generator(train, hrvq, mmr_body, mmr_whole,
                                   dataclasses.replace(cfg.magm, steps=1))
        tok.save_tokenizer(work / "hrvq.snc", hrvq)
        gen.save_generator(work / "magm.snc", magm)
        hrvq, magm = tok.load_tokenizer(work / "hrvq.snc"), gen.load_generator(work / "magm.snc")
        tracks = [random_track(derive_seed(seed, "perfbench-gen", i), d, cfg.corpus.genres)
                  for i, d in enumerate(durations)]
        warm = request(hrvq, magm, tracks, 0)
        return hrvq, magm, tracks, warm

    def request(hrvq, magm, tracks, slot):
        track_i, gseed = schedule[slot]
        gcfg = dataclasses.replace(cfg.generation, seed=gseed)
        dance = gen.generate(magm, hrvq, tracks[track_i], gcfg)
        dio.write_motion(work / f"req{slot:04d}.sdm1", dance)
        return dance

    out = Outcome()
    (hrvq, magm, tracks, warm), out.setup_s = _median_setup(scale, spans, build)
    expected_passes = 2 * cfg.generation.iterations + 2 * cfg.magm.layers_v
    first_pass = {0: frames_digest(warm.data)}  # slot -> digest of its output
    passes0 = magm.forward_count
    seen_tracks, repeated, padded = set(), 0, 0
    t_start = time.perf_counter()
    while True:
        slot = out.attempted % len(schedule)
        spans.request = f"gen{out.attempted}"
        before = magm.forward_count
        dance, dt = _op(out, f"request {out.attempted}", lambda: request(hrvq, magm, tracks, slot))
        track_i, gseed = schedule[slot]
        repeated += track_i in seen_tracks
        seen_tracks.add(track_i)
        if dance is not None:
            problem = _check_dance(dance, tracks[track_i], magm.forward_count - before,
                                   expected_passes)
            digest = frames_digest(dance.data)
            if problem is None and first_pass.setdefault(slot, digest) != digest:
                problem = f"track {track_i} seed {gseed} output differs from its earlier request"
            if problem is None:
                out.latencies.append(dt)
                out.frames += dance.frames
                padded += dance.frames != round(tracks[track_i].duration * tracks[track_i].feature_rate)
                if out.attempted <= len(schedule):
                    out.digest.update(digest.encode())
            else:
                out.fail(f"request {out.attempted - 1}: {problem}")
        out.wall_s = time.perf_counter() - t_start
        if out.wall_s >= seconds and out.attempted >= scale.min_ops:
            break
    out.forward_passes_per_clip = (magm.forward_count - passes0) / out.attempted
    out.detail = {
        "gen_frames_per_s": (out.frames / out.wall_s, "frames/s"),
        "gen_latency_p50_ms": (1e3 * percentile(out.latencies, 50), "ms"),
        "gen_latency_p90_ms": (1e3 * percentile(out.latencies, 90), "ms"),
    }
    out.facts = {"requests": out.attempted, "latency_samples": len(out.latencies),
                 "repeated_track_share": repeated / out.attempted,
                 "padded_output_share": padded / out.attempted,
                 "forward_passes_per_clip": out.forward_passes_per_clip,
                 "track_seconds": [float(durations.min()), float(durations.max())]}
    return out


def _check_dance(dance, track, passes: int, expected_passes: int) -> str | None:
    # generation covers whole token strides, so the output is the track's
    # frame count rounded up to the stride (the library's own tests allow
    # less than one stride of difference)
    n_frames = int(round(track.duration * track.feature_rate))
    want = (tok.DOWNSCALE * -(-n_frames // tok.DOWNSCALE), FRAME_WIDTH)
    if dance.data.shape != want:
        return f"output shape {dance.data.shape}, expected {want}"
    if not np.all(np.isfinite(dance.data)):
        return "output is not finite"
    if passes != expected_passes:
        return f"{passes} forward passes, expected {expected_passes}"
    return None


# -- library ----------------------------------------------------------------------


def run_library(seed: int, seconds: float, scale: Scale, work: Path,
                spans: SpanRecorder) -> Outcome:
    """A motion-library service over a seeded gallery, in cycles of four
    phases: ingest (encode each clip), detokenize (decode each stored grid),
    query (music queries against the whole raw-motion gallery, made as the
    `dancegen retrieve` command makes them) and evaluate (score the decoded
    clips with the metric suite, as the pipeline's evaluate stage does)."""
    cfg = run_config(seed, scale)
    durations = mixed_durations(scale.gallery, seeded_rng(seed, "perfbench-gallery-durations"))
    q_durations = mixed_durations(scale.queries, seeded_rng(seed, "perfbench-query-durations"))

    def build():
        train = _setup_corpus(cfg, scale, scale.setup_clips)
        frames = [s.motion.data for s in train]
        hrvq = tok.train_tokenizer(np.stack(frames), dataclasses.replace(cfg.hrvq, steps=1))
        mmr = ret.train_retrieval(frames, [s.track.features for s in train],
                                  dataclasses.replace(cfg.mmr_whole, steps=1))
        extractors = {}
        for channels in ("whole", "hand"):
            xcfg = dataclasses.replace(cfg.extractor, channels=channels, steps=1,
                                       seed=derive_seed(cfg.extractor.seed, channels))
            met.save_extractor(work / f"ex_{channels}.snc", met.train_extractor(frames, xcfg))
            extractors[channels] = met.load_extractor(work / f"ex_{channels}.snc")
        tok.save_tokenizer(work / "hrvq.snc", hrvq)
        ret.save_retrieval(work / "mmr.snc", mmr)
        hrvq, mmr = tok.load_tokenizer(work / "hrvq.snc"), ret.load_retrieval(work / "mmr.snc")
        gallery = []
        for i, d in enumerate(durations):
            track = random_track(derive_seed(seed, "perfbench-gallery", i), d, cfg.corpus.genres)
            gallery.append((track, synth.generate_dance(track, derive_seed(seed, "perfbench-dance", i))))
        queries = [random_track(derive_seed(seed, "perfbench-query", i), d, cfg.corpus.genres)
                   for i, d in enumerate(q_durations)]
        motions = [m for _, m in gallery]
        ret.retrieve(mmr, queries[0], motions, K)  # warm-up
        tok.decode(hrvq, tok.encode(hrvq, motions[0]).grid)
        return hrvq, mmr, extractors, gallery, queries

    out = Outcome()
    (hrvq, mmr, extractors, gallery, queries), out.setup_s = _median_setup(scale, spans, build)
    motions = [m for _, m in gallery]
    gallery_frames = sum(m.frames for m in motions)
    phase = {k: {"seconds": 0.0, "frames": 0, "clips": 0} for k in ("ingest", "detok", "eval")}
    query_lat: list[float] = []
    first_grids: dict[int, np.ndarray] = {}
    cycle = 0
    t_start = time.perf_counter()

    def done(kind, dt, frames, clips=1):
        out.latencies.append(dt)
        out.frames += frames
        if kind in phase:
            phase[kind]["seconds"] += dt
            phase[kind]["frames"] += frames
            phase[kind]["clips"] += clips

    while True:
        grids = {}
        for i, m in enumerate(motions):
            spans.request = f"ingest{cycle}.{i}"
            res, dt = _op(out, f"ingest clip {i}", lambda: tok.encode(hrvq, m))
            if res is None:
                continue
            idx = res.grid.indices
            if idx.shape[1:] != (3, -(-m.frames // tok.DOWNSCALE)) or \
                    not np.array_equal(idx, first_grids.setdefault(i, idx)):
                out.fail(f"ingest clip {i}: grid {idx.shape} differs from its first encoding")
                continue
            if cycle == 0:
                out.digest.update(idx.astype("<i8").tobytes())
            done("ingest", dt, m.frames)
            grids[i] = res.grid
        decoded = {}
        for i, grid in grids.items():
            spans.request = f"detok{cycle}.{i}"
            seq, dt = _op(out, f"detok clip {i}", lambda: tok.decode(hrvq, grid))
            if seq is None:
                continue
            if seq.data.shape != motions[i].data.shape or not np.all(np.isfinite(seq.data)):
                out.fail(f"detok clip {i}: round trip gave {seq.data.shape}, "
                         f"expected finite {motions[i].data.shape}")
                continue
            if cycle == 0:
                out.digest.update(frames_digest(seq.data).encode())
            done("detok", dt, seq.frames)
            decoded[i] = seq
        for q, track in enumerate(queries):
            spans.request = f"query{cycle}.{q}"
            res, dt = _op(out, f"query {q}", lambda: ret.retrieve(mmr, track, motions, K))
            if res is None:
                continue
            problem = _check_ranking(*res, len(motions))
            if problem:
                out.fail(f"query {q}: {problem}")
                continue
            if cycle == 0:
                out.digest.update(np.asarray(res[0], "<i8").tobytes()
                                  + np.asarray(res[1], "<f8").tobytes())
            done("query", dt, gallery_frames)
            query_lat.append(dt)
        if len(decoded) >= 2:
            spans.request = f"eval{cycle}"
            pairs = [gallery[i] for i in decoded]
            seqs = list(decoded.values())
            scores, dt = _op(out, f"evaluate cycle {cycle}",
                             lambda: evaluate(pairs, seqs, mmr, extractors, cfg))
            if scores is not None:
                bad = sorted(k for k, v in scores.items() if not np.isfinite(v))
                if bad:
                    out.fail(f"evaluate cycle {cycle}: non-finite {bad}")
                else:
                    if cycle == 0:
                        out.digest.update(repr(sorted(scores.items())).encode())
                    done("eval", dt, sum(s.frames for s in seqs), len(seqs))
        cycle += 1
        out.wall_s = time.perf_counter() - t_start
        if out.wall_s >= seconds and len(query_lat) >= scale.min_ops \
                and out.attempted >= scale.min_ops:
            break

    def rate(kind, unit):
        busy = phase[kind]["seconds"]
        return phase[kind][unit] / busy if busy else 0.0

    out.detail = {
        "ingest_frames_per_s": (rate("ingest", "frames"), "frames/s"),
        "detok_frames_per_s": (rate("detok", "frames"), "frames/s"),
        "query_latency_p50_ms": (1e3 * percentile(query_lat, 50), "ms"),
        "query_latency_p90_ms": (1e3 * percentile(query_lat, 90), "ms"),
        "eval_clips_per_s": (rate("eval", "clips"), "clips/s"),
    }
    out.facts = {"cycles": cycle, "operations": out.attempted, "queries": len(query_lat),
                 "gallery_clips": len(motions), "gallery_frames": gallery_frames,
                 "shared_gallery_share": 1.0}
    return out


def evaluate(pairs, seqs, mmr, extractors, cfg: RunConfig) -> dict[str, float]:
    """Score decoded clips against their originals as the evaluate stage does."""
    mp = cfg.metrics
    originals = [m for _, m in pairs]
    scores = {}
    pairs_n = min(mp.diversity_pairs, len(seqs) // 2)
    for tag, ex in (("", extractors["whole"]), ("_h", extractors["hand"])):
        real = met.motion_features(ex, originals)
        fake = met.motion_features(ex, seqs)
        scores["FID" + tag] = met.fid(real, fake)
        scores["Div" + tag] = met.diversity(fake, pairs=pairs_n, seed=cfg.seed)
    mms, bas, faces, labels = [], [], [], []
    for (track, _), dance in zip(pairs, seqs):
        z = ret.encode_motion(mmr, dance)
        c = ret.encode_music(mmr, track)
        zs = ret.segment_latents(mmr, dance)
        cs = ret.segment_latents(mmr, track)
        mms.append(met.mmr_matching_score(z, c, zs, cs, mu=mp.mms_mu, lam=mp.mms_lambda))
        bas.append(met.beat_alignment_score(met.BeatSet(track.beat_times), dance,
                                            sigma=mp.bas_sigma))
        faces.append(dance.data[:, FACE])
        labels.append(track.emotion_id)
    scores["MMR-MS"] = float(np.median(mms))
    scores["BAS"] = float(np.median(bas))
    scores["EAS"] = met.emotion_alignment_score(faces, labels, synth.EMOTION_CENTROIDS)
    return scores


def _check_ranking(order, sims, gallery_size: int) -> str | None:
    order = np.asarray(order)
    sims = np.asarray(sims)
    if order.shape != (K,) or len(set(order.tolist())) != K:
        return f"expected {K} distinct indices, got {order.tolist()}"
    if order.min() < 0 or order.max() >= gallery_size:
        return f"index outside the gallery: {order.tolist()}"
    if not np.all(np.isfinite(sims)) or np.any(np.diff(sims) > 0):
        return f"similarities not finite and descending: {sims.tolist()}"
    return None


# -- train ------------------------------------------------------------------------


class StepClock(list):
    """A training log that also stamps the time of each logged step.

    Passed as the `log` argument of the public train functions, it yields
    per-step wall times from outside the library.  Entries with a negative
    step (the tokenizer's untrained-loss record) fold into the next step.
    """

    def __init__(self):
        super().__init__()
        self.stamps: list[float] = []

    def append(self, entry) -> None:
        if entry.get("step", 0) >= 0:
            self.stamps.append(time.perf_counter())
        super().append(entry)

    def step_times(self, start: float, end: float) -> list[float]:
        """Per-step seconds; the work after the last step (finalization)
        counts to the last step, so the times sum to the call's."""
        bounds = [start] + self.stamps
        times = [b - a for a, b in zip(bounds, bounds[1:])]
        times[-1] += end - bounds[-1]
        return times


def run_train(seed: int, seconds: float, scale: Scale, work: Path,
              spans: SpanRecorder) -> Outcome:
    """The pipeline's training stages in pipeline order, each a public train
    call with a fixed step count at desk shapes and batch sizes."""
    cfg = run_config(seed, scale)

    def build():
        train = _setup_corpus(cfg, scale, scale.train_clips)
        xcfg = dataclasses.replace(cfg.extractor, steps=1)
        met.save_extractor(work / "ex.snc", met.train_extractor([s.motion.data for s in train], xcfg))
        met.load_extractor(work / "ex.snc")  # warm-up round trip
        return train

    out = Outcome()
    train, out.setup_s = _median_setup(scale, spans, build)
    frames = np.stack([s.motion.data for s in train])
    motions = [s.motion.data for s in train]
    feats = [s.track.features for s in train]
    clip = frames.shape[1]
    steps = dict(TRAIN_STAGES)
    r = dataclasses.replace

    def stage_call(name, log):
        if name.startswith("mmr-"):
            rcfg = cfg.mmr_body if name == "mmr-body" else cfg.mmr_whole
            models[name] = ret.train_retrieval(motions, feats, r(rcfg, steps=steps[name]), log=log)
        elif name == "hrvq":
            models[name] = tok.train_tokenizer(frames, r(cfg.hrvq, steps=steps[name]), log=log)
        elif name == "magm":
            models[name] = gen.train_generator(train, models["hrvq"], models["mmr-body"],
                                               models["mmr-whole"], r(cfg.magm, steps=steps[name]),
                                               log=log)
        else:
            channels = name.split("-")[1]
            xcfg = r(cfg.extractor, channels=channels, steps=steps[name],
                     seed=derive_seed(cfg.extractor.seed, channels))
            models[name] = met.train_extractor(motions, xcfg, log=log)

    def frames_per_step(name):
        if name == "hrvq":
            return min(cfg.hrvq.batch, len(train)) * min(cfg.hrvq.crop_frames or clip, clip)
        if name.startswith("mmr-"):
            rcfg = cfg.mmr_body if name == "mmr-body" else cfg.mmr_whole
            return min(rcfg.batch, len(train)) * min(rcfg.crop_frames or clip, clip)
        batch = cfg.magm.batch if name == "magm" else cfg.extractor.batch
        return min(batch, len(train)) * clip

    stage_time = {name: 0.0 for name, _ in TRAIN_STAGES}
    stage_steps = dict.fromkeys(stage_time, 0)
    first_round = None
    rounds = 0
    t_start = time.perf_counter()
    while True:
        models = {}
        trajectory = hashlib.sha256()
        for name, n_steps in TRAIN_STAGES:
            spans.request = f"train{rounds}.{name}"
            log = StepClock()
            t0 = time.perf_counter()
            try:
                stage_call(name, log)
            except Exception as e:  # the loop keeps running and reports the failure
                out.attempted += n_steps
                for _ in range(n_steps):
                    out.fail(f"round {rounds} {name}: {_describe(e)}")
                continue
            t1 = time.perf_counter()
            out.attempted += n_steps
            losses = [v for entry in log for k, v in entry.items() if k not in ("step", "active")]
            if len(log.stamps) != n_steps or not np.all(np.isfinite(losses)):
                for _ in range(n_steps):
                    out.fail(f"round {rounds} {name}: {len(log.stamps)} steps logged, "
                             f"losses finite: {bool(np.all(np.isfinite(losses)))}")
                continue
            trajectory.update(np.asarray(losses, "<f8").tobytes())
            out.latencies.extend(log.step_times(t0, t1))
            out.frames += n_steps * frames_per_step(name)
            stage_time[name] += t1 - t0
            stage_steps[name] += n_steps
        digest = trajectory.hexdigest()
        if first_round is None:
            first_round = digest
            out.digest.update(digest.encode())
        elif digest != first_round:
            out.fail(f"round {rounds}: loss trajectory differs from round 0")
        rounds += 1
        out.wall_s = time.perf_counter() - t_start
        if out.wall_s >= seconds and out.attempted >= scale.min_ops:
            break

    def rate(*names):
        busy = sum(stage_time[n] for n in names)
        return sum(stage_steps[n] for n in names) / busy if busy else 0.0

    out.detail = {
        "train_hrvq_steps_per_s": (rate("hrvq"), "steps/s"),
        "train_mmr_steps_per_s": (rate("mmr-body", "mmr-whole"), "steps/s"),
        "train_magm_steps_per_s": (rate("magm"), "steps/s"),
        "train_extractor_steps_per_s": (rate("extractor-whole", "extractor-hand"), "steps/s"),
    }
    out.facts = {"rounds": rounds, "steps": out.attempted, "train_clips": len(train),
                 "clip_frames": clip, "stage_steps": dict(TRAIN_STAGES)}
    return out


WORKLOADS = {"generate": run_generate, "train": run_train, "library": run_library}
