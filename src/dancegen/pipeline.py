"""End-to-end runs: corpus generation, the three training stages, test-split
generation, and evaluation, all across one config with per-stage seeds fanned
out from a single root seed (splitmix derivation in nn.rng).

Each stage function takes the paths it reads and the path it writes.
run_pipeline lays the artifacts out under one run root and skips a stage
whose artifact already exists, so interrupted runs resume.  A provenance
file records the hash of each artifact for the verifier.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import io as dio
from .errors import DependencyError, ParameterError, check_config_keys
from .metrics import (
    BeatSet,
    ExtractorConfig,
    beat_alignment_score,
    diversity,
    emotion_alignment_score,
    fid,
    mmr_matching_score,
    motion_features,
    multimodality,
    save_extractor,
    train_extractor,
)
from .motion import FACE
from .nn.rng import derive_seed
from .generator import (
    GenerationConfig,
    GeneratorConfig,
    generate,
    load_generator,
    save_generator,
    train_generator,
)
from .retrieval import (
    RetrievalConfig,
    encode_motion,
    encode_music,
    load_retrieval,
    save_retrieval,
    segment_latents,
    train_retrieval,
)
from .synth import EMOTION_CENTROIDS, CorpusConfig, make_corpus, split_of
from .tokenizer import TokenizerConfig, load_tokenizer, save_tokenizer, train_tokenizer

ENV_ROOT = "DANCEGEN_HOME"


@dataclass
class MetricParams:
    bas_sigma: float = 0.1
    mms_mu: float = 0.7
    mms_lambda: float = 0.3
    diversity_pairs: int = 300
    mm_generations: int = 10

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str = "run"
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    hrvq: TokenizerConfig = field(default_factory=TokenizerConfig)
    mmr_body: RetrievalConfig = field(default_factory=lambda: RetrievalConfig(variant="body"))
    mmr_whole: RetrievalConfig = field(default_factory=lambda: RetrievalConfig(variant="whole"))
    magm: GeneratorConfig = field(default_factory=GeneratorConfig)
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    generation: GenerationConfig = field(default_factory=GenerationConfig)
    metrics: MetricParams = field(default_factory=MetricParams)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "corpus": self.corpus.to_dict(),
            "hrvq": self.hrvq.to_dict(),
            "mmr_body": self.mmr_body.to_dict(),
            "mmr_whole": self.mmr_whole.to_dict(),
            "magm": self.magm.to_dict(),
            "extractor": self.extractor.to_dict(),
            "generation": self.generation.to_dict(),
            "metrics": self.metrics.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        """Config from a saved dict; a missing key keeps its default and an
        unknown section or key raises ParameterError."""
        defaults = RunConfig()
        for name, doc in d.items():
            if name in ("seed", "out_dir", "hrvq"):  # TokenizerConfig.from_dict checks hrvq
                continue
            if not dataclasses.is_dataclass(getattr(defaults, name, None)):
                raise ParameterError(f"unknown config section {name!r}")
            check_config_keys(name, doc, type(getattr(defaults, name)))
        return RunConfig(
            seed=d.get("seed", 0),
            out_dir=d.get("out_dir", "run"),
            corpus=CorpusConfig.from_dict(d.get("corpus", {})),
            hrvq=TokenizerConfig.from_dict(d.get("hrvq", {})),
            mmr_body=RetrievalConfig(**{**{"variant": "body"}, **d.get("mmr_body", {})}),
            mmr_whole=RetrievalConfig(**{**{"variant": "whole"}, **d.get("mmr_whole", {})}),
            magm=GeneratorConfig(**d.get("magm", {})),
            extractor=ExtractorConfig(**d.get("extractor", {})),
            generation=GenerationConfig(**d.get("generation", {})),
            metrics=MetricParams(**d.get("metrics", {})),
        )

    @staticmethod
    def desk_profile(seed: int = 0, out_dir: str = "run") -> "RunConfig":
        """Small widths and short schedules so the whole pipeline runs on a
        CPU in minutes; algorithmic constants keep their stated defaults."""
        cfg = RunConfig(seed=seed, out_dir=out_dir)
        cfg.corpus = CorpusConfig(n_samples=96, duration_s=8.0, genres=tuple(range(8)))
        cfg.hrvq = TokenizerConfig(code_dim=128, hidden=48, steps=220, batch=8,
                                   crop_frames=64, lr=1e-3, warmup_steps=20)
        cfg.mmr_body = RetrievalConfig(variant="body", hidden=48, steps=400, batch=48,
                                       crop_frames=64, lr=1.5e-3, warmup_steps=20)
        cfg.mmr_whole = RetrievalConfig(variant="whole", hidden=48, steps=400, batch=48,
                                        crop_frames=64, lr=1.5e-3, warmup_steps=20)
        cfg.magm = GeneratorConfig(code_dim=128, width=128, depth=2, res_depth=2, heads=4,
                                   steps=300, batch=8, lr=1e-3, warmup_steps=30)
        cfg.extractor = ExtractorConfig(steps=150, batch=16, lr=1e-3)
        cfg.metrics = MetricParams(diversity_pairs=4, mm_generations=4)
        return cfg

    def resolved(self) -> "RunConfig":
        """Fan the root seed out to the per-stage seeds (splitmix derivation)."""
        cfg = RunConfig.from_dict(self.to_dict())
        cfg.corpus.seed = derive_seed(cfg.seed, "corpus")
        cfg.hrvq.seed = derive_seed(cfg.seed, "hrvq")
        cfg.mmr_body.seed = derive_seed(cfg.seed, "mmr", "body")
        cfg.mmr_whole.seed = derive_seed(cfg.seed, "mmr", "whole")
        cfg.magm.seed = derive_seed(cfg.seed, "magm")
        cfg.extractor.seed = derive_seed(cfg.seed, "extractor")
        cfg.generation.seed = derive_seed(cfg.seed, "generation")
        return cfg


def load_config(path: str | Path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParameterError(f"{path}: not a JSON config ({e})") from e
    return RunConfig.from_dict(doc)


def save_config(path: str | Path, cfg: RunConfig) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=1, sort_keys=True))


def apply_overrides(cfg: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply `section.key=value` strings onto a config."""
    doc = cfg.to_dict()
    for item in overrides:
        if "=" not in item:
            raise ParameterError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node:
                raise ParameterError(f"unknown config section {part!r} in {key!r}")
            node = node[part]
        leaf = parts[-1]
        if leaf not in node:
            raise ParameterError(f"unknown config key {key!r}")
        node[leaf] = json.loads(raw) if raw and raw[0] in "[{" else _coerce(node[leaf], raw)
    return RunConfig.from_dict(doc)


def _coerce(old, raw: str):
    if isinstance(old, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(old, int):
        return int(raw)
    if isinstance(old, float):
        return float(raw)
    if isinstance(old, (list, tuple)):
        return json.loads(raw)
    return raw


def artifact_root(cfg: RunConfig) -> Path:
    base = os.environ.get(ENV_ROOT, ".")
    out = Path(cfg.out_dir)
    return out if out.is_absolute() else Path(base) / out


# -- stages -------------------------------------------------------------------


def _need(path: str | Path, stage: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise DependencyError(f"missing prerequisite {str(path)!r}", stage)
    return path


def _train_split(corpus: str | Path, stage: str):
    samples, _ = dio.load_corpus(_need(corpus, stage))
    return split_of(samples, "train")


def stage_corpus(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Write the synthetic corpus under `out_dir`; returns its manifest."""
    return dio.save_corpus(make_corpus(cfg.corpus), out_dir, cfg.corpus.to_dict())


def stage_mmr(cfg: RunConfig, variant: str, corpus: str | Path, out: str | Path) -> Path:
    train = _train_split(corpus, f"train-mmr-{variant}")
    rcfg = cfg.mmr_body if variant == "body" else cfg.mmr_whole
    model = train_retrieval([s.motion.data for s in train],
                            [s.track.features for s in train], rcfg)
    save_retrieval(out, model)
    return Path(out)


def stage_hrvq(cfg: RunConfig, corpus: str | Path, out: str | Path) -> Path:
    train = _train_split(corpus, "train-hrvq")
    frames = np.stack([s.motion.data for s in train])
    model = train_tokenizer(frames, cfg.hrvq)
    save_tokenizer(out, model)
    return Path(out)


def stage_magm(cfg: RunConfig, corpus: str | Path, hrvq: str | Path, mmr_body: str | Path,
               mmr_whole: str | Path, out: str | Path) -> Path:
    stage = "train-magm"
    train = _train_split(corpus, stage)
    model = train_generator(train, load_tokenizer(_need(hrvq, stage)),
                            load_retrieval(_need(mmr_body, stage)),
                            load_retrieval(_need(mmr_whole, stage)), cfg.magm)
    save_generator(out, model)
    return Path(out)


def stage_generate(cfg: RunConfig, corpus: str | Path, hrvq: str | Path, magm: str | Path,
                   out_manifest: str | Path) -> Path:
    """Generate `mm_generations` dances per test track beside `out_manifest`;
    wall time goes to `timings.txt` there."""
    samples, manifest = dio.load_corpus(_need(corpus, "generate"))
    tokenizer = load_tokenizer(_need(hrvq, "generate"))
    model = load_generator(_need(magm, "generate"))
    out_manifest = Path(out_manifest)
    out_dir = out_manifest.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    track_files = {row["id"]: Path(corpus).parent / row["track"] for row in manifest["samples"]}
    rows = []
    cost_before = model.forward_count
    clips = 0
    t0 = time.perf_counter()
    for s in split_of(samples, "test"):
        entry = {"id": s.sample_id, "track": os.path.relpath(track_files[s.sample_id], out_dir),
                 "gens": []}
        for g in range(cfg.metrics.mm_generations):
            gcfg = dataclasses.replace(cfg.generation,
                                       seed=derive_seed(cfg.generation.seed, s.sample_id, g))
            dance = generate(model, tokenizer, s.track, gcfg)
            rel = f"{s.sample_id}_g{g}.sdm1"
            dio.write_motion(out_dir / rel, dance)
            entry["gens"].append(rel)
            clips += 1
        rows.append(entry)
    wall = time.perf_counter() - t0
    passes = (model.forward_count - cost_before) / max(clips, 1)
    doc = {"kind": "generated", "rows": rows, "forward_passes_per_clip": passes,
           "config": cfg.generation.to_dict()}
    dio.write_manifest(out_manifest, doc)
    (out_dir / "timings.txt").write_text(
        f"generate: {wall:.2f} s wall for {clips} clips "
        f"({wall / max(clips, 1):.3f} s/clip on this machine)\n")
    return out_manifest


def _extractor(cfg: RunConfig, channels: str, train_frames, out_dir: Path):
    xcfg = dataclasses.replace(cfg.extractor, channels=channels,
                               seed=derive_seed(cfg.extractor.seed, channels))
    model = train_extractor(train_frames, xcfg)
    save_extractor(out_dir / f"extractor_{channels}.snc", model)
    return model


def stage_evaluate(cfg: RunConfig, corpus: str | Path, generated: str | Path,
                   mmr_whole: str | Path, report: str | Path) -> Path:
    """Score the generated dances against the corpus test split.  Writes
    `report` and the same scores as CSV beside it, and trains the two
    feature extractors the scores need into `extractor_<channels>.snc`
    there as well."""
    samples, _ = dio.load_corpus(_need(corpus, "evaluate"))
    generated = _need(generated, "evaluate")
    gen_manifest = dio.read_manifest(generated)
    if gen_manifest.get("kind") != "generated":
        raise ParameterError(f"{generated}: not a generated manifest "
                             f"(kind {gen_manifest.get('kind')!r})")
    mmr_whole = load_retrieval(_need(mmr_whole, "evaluate"))
    report = Path(report)
    train = split_of(samples, "train")
    test = {s.sample_id: s for s in split_of(samples, "test")}
    unknown = sorted({row["id"] for row in gen_manifest["rows"]} - test.keys())
    if unknown:
        raise ParameterError(f"{generated}: ids not in the corpus test split: "
                             f"{', '.join(unknown)}")

    train_frames = [s.motion.data for s in train]
    ex_whole = _extractor(cfg, "whole", train_frames, report.parent)
    ex_hand = _extractor(cfg, "hand", train_frames, report.parent)

    primaries, per_track_gens, rows_meta = [], [], []
    for row in gen_manifest["rows"]:
        gens = [dio.read_motion(generated.parent / rel) for rel in row["gens"]]
        primaries.append(gens[0])
        per_track_gens.append(gens)
        rows_meta.append(row["id"])
    gt_motions = [test[i].motion for i in rows_meta]
    tracks = [test[i].track for i in rows_meta]

    feats_gt = motion_features(ex_whole, gt_motions)
    feats_gen = motion_features(ex_whole, primaries)
    feats_gt_h = motion_features(ex_hand, gt_motions)
    feats_gen_h = motion_features(ex_hand, primaries)

    mp = cfg.metrics
    pairs = min(mp.diversity_pairs, len(primaries) // 2)
    div_seed = derive_seed(cfg.seed, "metrics", "diversity")
    scores = {
        "FID": fid(feats_gt, feats_gen),
        "FID_h": fid(feats_gt_h, feats_gen_h),
        "Div": diversity(feats_gen, pairs=pairs, seed=div_seed),
        "Div_h": diversity(feats_gen_h, pairs=pairs, seed=div_seed),
        "MM": multimodality([motion_features(ex_whole, g) for g in per_track_gens],
                            seed=derive_seed(cfg.seed, "metrics", "mm")),
    }
    mms, bas, faces, labels = [], [], [], []
    for dance, track in zip(primaries, tracks):
        z = encode_motion(mmr_whole, dance)
        c = encode_music(mmr_whole, track)
        zs = segment_latents(mmr_whole, dance)
        cs = segment_latents(mmr_whole, track)
        mms.append(mmr_matching_score(z, c, zs, cs, mu=mp.mms_mu, lam=mp.mms_lambda))
        bas.append(beat_alignment_score(BeatSet(track.beat_times), dance, sigma=mp.bas_sigma))
        faces.append(dance.data[:, FACE])
        labels.append(track.emotion_id)
    scores["MMR-MS"] = float(np.median(mms))
    scores["BAS"] = float(np.median(bas))
    scores["EAS"] = emotion_alignment_score(faces, labels, EMOTION_CENTROIDS)
    scores["RunTime"] = float(gen_manifest["forward_passes_per_clip"])

    _write_report(report, report.with_suffix(".csv"), cfg, scores)
    return report


COLUMNS = ("FID", "FID_h", "Div", "Div_h", "MM", "MMR-MS", "BAS", "EAS", "RunTime")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write_report(txt_path: Path, csv_path: Path, cfg: RunConfig, scores: dict) -> None:
    echo = cfg.to_dict()
    echo.pop("out_dir")  # an output location, not part of the experiment identity
    config_json = json.dumps(echo, sort_keys=True)
    lines = [
        "evaluation report",
        f"seed: {cfg.seed}",
        f"constants: bas_sigma={cfg.metrics.bas_sigma} mms_mu={cfg.metrics.mms_mu} "
        f"mms_lambda={cfg.metrics.mms_lambda}",
        "note: RunTime counts transformer forward passes per generated clip "
        "(deterministic cost; wall seconds are logged in timings.txt)",
        "",
        " ".join(f"{c:>10}" for c in COLUMNS),
        " ".join(f"{_fmt(scores[c]):>10}" for c in COLUMNS),
        "",
        "csv:",
        ",".join(COLUMNS),
        ",".join(_fmt(scores[c]) for c in COLUMNS),
        "",
        f"config: {config_json}",
        "",
    ]
    txt_path.write_text("\n".join(lines))
    csv_path.write_text(",".join(COLUMNS) + "\n" + ",".join(_fmt(scores[c]) for c in COLUMNS) + "\n")


# -- orchestration ----------------------------------------------------------------


_CORPUS = "corpus/manifest.json"
_GENERATED = "generated/manifest.json"

# stage -> (artifact under the run root, call(cfg, root, artifact))
_PIPELINE = {
    "gen-corpus": (_CORPUS, lambda cfg, r, out: stage_corpus(cfg, out.parent)),
    "train-mmr-body": ("mmr_body.snc", lambda cfg, r, out: stage_mmr(cfg, "body", r / _CORPUS, out)),
    "train-mmr-whole": ("mmr_whole.snc",
                        lambda cfg, r, out: stage_mmr(cfg, "whole", r / _CORPUS, out)),
    "train-hrvq": ("hrvq.snc", lambda cfg, r, out: stage_hrvq(cfg, r / _CORPUS, out)),
    "train-magm": ("magm.snc", lambda cfg, r, out: stage_magm(
        cfg, r / _CORPUS, r / "hrvq.snc", r / "mmr_body.snc", r / "mmr_whole.snc", out)),
    "generate": (_GENERATED, lambda cfg, r, out: stage_generate(
        cfg, r / _CORPUS, r / "hrvq.snc", r / "magm.snc", out)),
    "evaluate": ("report.txt", lambda cfg, r, out: stage_evaluate(
        cfg, r / _CORPUS, r / _GENERATED, r / "mmr_whole.snc", out)),
}
STAGES = tuple(_PIPELINE)


def run_pipeline(cfg: RunConfig, stages: tuple[str, ...] = STAGES) -> Path:
    """Run (or resume) the full pipeline under the run root; a stage whose
    artifact already exists there is skipped.  Returns the report path."""
    cfg = cfg.resolved()
    root = artifact_root(cfg)
    if (root / "config.json").exists():
        drift = _config_drift(load_config(root / "config.json"), cfg)
        if drift:
            raise ParameterError(f"{root} was built with a different config "
                                 f"({', '.join(drift)}); use a new out_dir")
    root.mkdir(parents=True, exist_ok=True)
    save_config(root / "config.json", cfg)
    for stage in stages:
        if stage not in _PIPELINE:
            raise ParameterError(f"unknown stage {stage!r}")
        artifact, call = _PIPELINE[stage]
        if not (root / artifact).exists():
            call(cfg, root, root / artifact)
    write_provenance(cfg, root)
    return root / _PIPELINE["evaluate"][0]


def _config_drift(old: RunConfig, new: RunConfig) -> list[str]:
    """The `section.key`s whose values differ; out_dir only names the root."""
    a, b = (json.loads(json.dumps(c.to_dict())) for c in (old, new))
    drift = []
    for name in sorted(a.keys() - {"out_dir"}):
        if isinstance(a[name], dict):
            drift += [f"{name}.{key}" for key in sorted(a[name]) if a[name][key] != b[name][key]]
        elif a[name] != b[name]:
            drift.append(name)
    return drift


def write_provenance(cfg: RunConfig, root: Path) -> Path:
    entries = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "provenance.json" and path.name != "timings.txt":
            entries[str(path.relative_to(root))] = dio.sha256_file(path)
    doc = {"seed": cfg.seed, "config": cfg.to_dict(), "artifacts": entries}
    out = root / "provenance.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True))
    return out


def verify_provenance(root: str | Path) -> list[str]:
    """Re-hash artifacts against the provenance record; returns mismatches."""
    root = Path(root)
    doc = json.loads((root / "provenance.json").read_text())
    problems = []
    for rel, digest in doc["artifacts"].items():
        path = root / rel
        if not path.exists():
            problems.append(f"missing: {rel}")
        elif dio.sha256_file(path) != digest:
            problems.append(f"hash mismatch: {rel}")
    return problems
