"""Masking, schedules, guidance identities, losses, iterative generation."""

import dataclasses

import numpy as np
import pytest

from dancegen.errors import PairingError, ParameterError, TooShortError
from dancegen.generator import (
    GenerationConfig,
    GeneratorConfig,
    MaskedGenerator,
    base_loss,
    generate,
    mask_tokens,
    masked_accuracy,
    residual_loss,
    save_generator,
    load_generator,
    track_features,
    train_generator,
    unmask_schedule,
)
from dancegen.io import load_checkpoint, save_checkpoint
from dancegen.nn.rng import generator as make_rng
from dancegen.synth import MusicTrack, generate_track
from dancegen.tokenizer import encode, load_tokenizer, save_tokenizer


class TestMaskTokens:
    def test_ratio_zero_identity(self):
        tokens = np.arange(30).reshape(3, 10)
        masked, mask = mask_tokens(tokens, 0.0, 0, mask_id=99)
        np.testing.assert_array_equal(masked, tokens)
        assert not mask.any()

    def test_ratio_one_masks_everything(self):
        tokens = np.arange(30).reshape(3, 10)
        masked, mask = mask_tokens(tokens, 1.0, 0, mask_id=99)
        assert mask.all()
        assert np.all(masked == 99)

    def test_ceiling_count(self):
        tokens = np.zeros((3, 10), dtype=np.int64)
        _, mask = mask_tokens(tokens, 0.37, 5, mask_id=9)
        assert mask.sum() == 4  # ceil(3.7)

    def test_masked_timestep_covers_all_parts(self):
        tokens = np.arange(30).reshape(3, 10)
        masked, mask = mask_tokens(tokens, 0.5, 3, mask_id=99)
        for t in range(10):
            column = masked[:, t]
            if mask[t]:
                assert np.all(column == 99)
            else:
                np.testing.assert_array_equal(column, tokens[:, t])

    def test_bad_ratio(self):
        with pytest.raises(ParameterError):
            mask_tokens(np.zeros((3, 4), dtype=np.int64), 1.5, 0, mask_id=1)


class TestUnmaskSchedule:
    def test_endpoints(self):
        assert unmask_schedule(0.0) == pytest.approx(1.0)
        assert unmask_schedule(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_midpoint(self):
        assert unmask_schedule(0.5) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_monotone(self):
        u = np.linspace(0, 1, 50)
        vals = [unmask_schedule(x) for x in u]
        assert np.all(np.diff(vals) <= 0)

    def test_domain_checked(self):
        with pytest.raises(ParameterError):
            unmask_schedule(-0.1)
        with pytest.raises(ParameterError):
            unmask_schedule(1.1)


class TestLosses:
    def test_uniform_logits_give_log_vocab(self, tiny_corpus, tiny_tokenizer,
                                           tiny_retrieval_pair, tiny_generator):
        # a model with all-equal logits scores ln(K) per masked token; emulate
        # by checking the cross-entropy helper on constant logits
        from dancegen.generator import _cross_entropy
        from dancegen.nn import Tensor

        K = 64
        logits = Tensor(np.zeros((3, 2, 5, K)))
        targets = np.zeros((2, 3, 5), dtype=np.int64)
        mask = np.ones((2, 5), dtype=bool)
        ce = _cross_entropy(logits, targets, mask)
        assert ce.item() == pytest.approx(np.log(K), abs=1e-12)

    def test_perfect_prediction_zero_ce(self):
        from dancegen.generator import _cross_entropy
        from dancegen.nn import Tensor

        K = 16
        targets = np.random.default_rng(0).integers(0, K, size=(2, 3, 5))
        logits = np.full((3, 2, 5, K), -1e6)
        for p in range(3):
            for b in range(2):
                for t in range(5):
                    logits[p, b, t, targets[b, p, t]] = 1e6 * 0 + 40.0
        ce = _cross_entropy(Tensor(logits), targets, np.ones((2, 5), dtype=bool))
        assert ce.item() == pytest.approx(0.0, abs=1e-12)

    def test_lambda_zero_gives_pure_ce(self, tiny_corpus, tiny_tokenizer,
                                       tiny_retrieval_pair, tiny_generator):
        from dancegen.generator import music_latents

        test = [s for s in tiny_corpus if s.split == "test"][:2]
        grids = np.stack([encode(tiny_tokenizer, s.motion).grid.indices for s in test])
        n = grids.shape[-1]
        cond = music_latents(tiny_generator.cond_encoder, [s.track for s in test])
        c_body = music_latents(tiny_retrieval_pair["body"], [s.track for s in test])
        feats = np.stack([track_features(s.track, n) for s in test])
        rng = make_rng(0, "t")
        total, ce, align = base_loss(tiny_generator, tiny_tokenizer, tiny_retrieval_pair["body"],
                                     grids, cond, c_body, feats, 0.5, rng, lambda_body=0.0)
        assert total.item() == pytest.approx(ce.item(), abs=1e-12)
        assert align.item() == 0.0

    def test_pairing_error(self, tiny_corpus, tiny_tokenizer, tiny_retrieval_pair, tiny_generator):
        test = [s for s in tiny_corpus if s.split == "test"][:2]
        grids = np.stack([encode(tiny_tokenizer, s.motion).grid.indices for s in test])
        with pytest.raises(PairingError):
            base_loss(tiny_generator, tiny_tokenizer, tiny_retrieval_pair["body"],
                      grids, np.zeros((1, 256)), np.zeros((1, 256)),
                      np.zeros((2, grids.shape[-1], 140)), 0.5, make_rng(0, "x"))

    def test_residual_rejects_v0(self, tiny_corpus, tiny_tokenizer, tiny_retrieval_pair):
        cfg = GeneratorConfig(codebook_size=64, code_dim=32, layers_v=0, width=32,
                              depth=1, res_depth=1, heads=2, seed=1)
        model = MaskedGenerator(cfg)
        model.cond_encoder = tiny_retrieval_pair["whole"]
        test = [s for s in tiny_corpus if s.split == "test"][:1]
        grids = np.stack([encode(tiny_tokenizer, s.motion).grid.indices for s in test])
        with pytest.raises(ParameterError):
            residual_loss(model, tiny_tokenizer, tiny_retrieval_pair["whole"],
                          grids, 1, np.zeros((1, 256)), np.zeros((1, 256)),
                          np.zeros((1, grids.shape[-1], 140)))

    def test_alignment_gradient_matches_finite_difference(self, tiny_corpus, tiny_tokenizer,
                                                          tiny_retrieval_pair):
        from dancegen.generator import music_latents, train_generator

        cfg = GeneratorConfig(codebook_size=64, code_dim=32, layers_v=2, width=16,
                              depth=1, res_depth=1, heads=2, seed=8)
        model = MaskedGenerator(cfg)
        model.cond_encoder = tiny_retrieval_pair["whole"]
        from dancegen.generator import _freeze
        _freeze(tiny_tokenizer)
        _freeze(tiny_retrieval_pair["whole"])
        test = [s for s in tiny_corpus if s.split == "test"][:2]
        grids = np.stack([encode(tiny_tokenizer, s.motion).grid.indices for s in test])
        n = grids.shape[-1]
        cond = music_latents(tiny_retrieval_pair["whole"], [s.track for s in test])
        feats = np.stack([track_features(s.track, n) for s in test])

        def compute():
            return residual_loss(model, tiny_tokenizer, tiny_retrieval_pair["whole"],
                                 grids, 1, cond, cond, feats)[0]

        model.zero_grad()
        compute().backward()
        params = [(k, p) for k, p in model.named_parameters() if p.requires_grad]
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 10:
            name, p = params[rng.integers(len(params))]
            if p.grad is None:
                continue
            pos = tuple(rng.integers(s) for s in p.data.shape)
            h = 1e-4
            orig = p.data[pos]
            p.data[pos] = orig + h
            up = compute().item()
            p.data[pos] = orig - h
            down = compute().item()
            p.data[pos] = orig
            fd = (up - down) / (2 * h)
            an = p.grad[pos]
            if abs(fd) < 1e-9 and abs(an) < 1e-9:
                checked += 1
                continue
            assert abs(an - fd) <= 2e-3 * max(abs(an), abs(fd)), name
            checked += 1


class TestGenerationConfig:
    @pytest.mark.parametrize("field", ["cfg_scale_base", "cfg_scale_residual"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_cfg_scales_must_be_finite(self, field, value):
        with pytest.raises(ParameterError, match=f"GenerationConfig.{field}"):
            GenerationConfig(**{field: value})

    def test_nan_fails_every_floor(self):
        from dancegen.tokenizer import TokenizerConfig

        with pytest.raises(ParameterError, match="TokenizerConfig.layers"):
            TokenizerConfig(layers=float("nan"))
        with pytest.raises(ParameterError, match="GenerationConfig.iterations"):
            GenerationConfig(iterations=float("nan"))

    def test_floors_and_large_scales_still_construct(self):
        cfg = GenerationConfig(cfg_scale_base=0.0, cfg_scale_residual=1e300, iterations=1)
        assert cfg.cfg_scale_residual == 1e300


class TestGenerate:
    def test_cfg_identity_at_scale_one(self, tiny_generator, tiny_tokenizer, tiny_corpus):
        from dancegen.generator import _cfg_logits

        track = tiny_corpus[0].track
        n = 30
        cond = np.zeros((1, 256))
        feats = track_features(track, n)[None]
        tokens = np.full((1, 3, n), tiny_generator.mask_id, dtype=np.int64)

        def forward(unconditional):
            drop = np.array([unconditional])
            return tiny_generator.forward_base(tokens, cond, feats, drop)

        guided = _cfg_logits(tiny_generator, forward, 1.0)
        np.testing.assert_array_equal(guided, forward(False).data)

    def test_cfg_zero_gives_unconditional(self, tiny_generator, tiny_corpus):
        from dancegen.generator import _cfg_logits

        track = tiny_corpus[0].track
        n = 30
        cond = np.random.default_rng(0).normal(size=(1, 256))
        feats = track_features(track, n)[None]
        tokens = np.full((1, 3, n), tiny_generator.mask_id, dtype=np.int64)

        def forward(unconditional):
            drop = np.array([unconditional])
            return tiny_generator.forward_base(tokens, cond, feats, drop)

        guided = _cfg_logits(tiny_generator, forward, 0.0)
        np.testing.assert_allclose(guided, forward(True).data, atol=1e-12)

    def test_deterministic_generation(self, tiny_generator, tiny_tokenizer, tiny_corpus):
        track = tiny_corpus[0].track
        gcfg = GenerationConfig(iterations=4, seed=123)
        a = generate(tiny_generator, tiny_tokenizer, track, gcfg)
        b = generate(tiny_generator, tiny_tokenizer, track, gcfg)
        np.testing.assert_array_equal(a.data, b.data)

    def test_duration_arithmetic(self, tiny_generator, tiny_tokenizer):
        track = generate_track(seed=3, duration_s=8.0, bpm=120.0)
        dance = generate(tiny_generator, tiny_tokenizer, track,
                         GenerationConfig(iterations=3, seed=1))
        assert dance.frames == 240
        assert abs(dance.duration - track.duration) < 4 / 30

    def test_too_short_track(self, tiny_generator, tiny_tokenizer, tiny_corpus):
        track = tiny_corpus[0].track

        class Short:
            features = track.features[:2]
            beat_times = np.array([0.0])
            feature_rate = 30
            duration = 0.05
            genre_id = 0
            emotion_id = 0

        with pytest.raises(TooShortError):
            generate(tiny_generator, tiny_tokenizer, Short(), GenerationConfig(seed=0))

    def test_tokens_stay_committed(self, tiny_generator, tiny_tokenizer, tiny_corpus,
                                   monkeypatch):
        # wrap the base forward to snapshot tokens each round; once a position
        # leaves the mask it must never change again
        track = tiny_corpus[0].track
        seen = []
        orig = tiny_generator.forward_base

        def spy(tokens, *args, **kwargs):
            seen.append(tokens.copy())
            return orig(tokens, *args, **kwargs)

        monkeypatch.setattr(tiny_generator, "forward_base", spy)
        generate(tiny_generator, tiny_tokenizer, track, GenerationConfig(iterations=5, seed=7))
        mask_id = tiny_generator.mask_id
        for earlier, later in zip(seen, seen[1:]):
            committed = earlier != mask_id
            np.testing.assert_array_equal(earlier[committed], later[committed])

    def test_generated_tokens_in_range(self, tiny_generator, tiny_tokenizer, tiny_corpus):
        from dancegen.tokenizer import encode as tok_encode

        track = tiny_corpus[1].track
        dance = generate(tiny_generator, tiny_tokenizer, track, GenerationConfig(iterations=3, seed=5))
        assert np.all(np.isfinite(dance.data))

    def test_generation_cost_independent_of_length(self, tiny_generator, tiny_tokenizer):
        gcfg = GenerationConfig(iterations=4, seed=2)
        t_short = generate_track(seed=5, duration_s=4.0, bpm=120.0)
        t_long = generate_track(seed=6, duration_s=8.0, bpm=120.0)
        before = tiny_generator.forward_count
        generate(tiny_generator, tiny_tokenizer, t_short, gcfg)
        mid = tiny_generator.forward_count
        generate(tiny_generator, tiny_tokenizer, t_long, gcfg)
        after = tiny_generator.forward_count
        assert mid - before == after - mid  # same pass count regardless of N

    def test_masked_accuracy_beats_uniform(self, tiny_generator, tiny_tokenizer, tiny_corpus):
        test = [s for s in tiny_corpus if s.split == "test"]
        acc = masked_accuracy(tiny_generator, tiny_tokenizer, test, ratio=0.5, seed=3)
        assert acc > 1.0 / tiny_generator.config.codebook_size

    def test_checkpoint_roundtrip(self, tiny_generator, tiny_tokenizer, tiny_corpus, tmp_path):
        path = tmp_path / "gen.snc"
        save_generator(path, tiny_generator)
        back = load_generator(path)
        track = tiny_corpus[0].track
        gcfg = GenerationConfig(iterations=3, seed=11)
        a = generate(tiny_generator, tiny_tokenizer, track, gcfg)
        b = generate(back, tiny_tokenizer, track, gcfg)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("section", ["generator", "condition"])
    def test_unknown_checkpoint_key_is_a_parameter_error(self, tiny_generator, tmp_path,
                                                          section):
        path = tmp_path / "gen.snc"
        save_generator(path, tiny_generator)
        kind, config, seed, arrays = load_checkpoint(path)
        config[section]["bogus"] = 1
        save_checkpoint(path, kind, config, seed, arrays)
        with pytest.raises(ParameterError, match=f"{section}.bogus"):
            load_generator(path)

    @pytest.mark.parametrize("section", ["generator", "condition"])
    def test_missing_config_section_is_a_parameter_error(self, tiny_generator, tmp_path,
                                                         section):
        path = tmp_path / "gen.snc"
        save_generator(path, tiny_generator)
        kind, config, seed, arrays = load_checkpoint(path)
        del config[section]
        save_checkpoint(path, kind, config, seed, arrays)
        with pytest.raises(ParameterError, match=f"no '{section}' section"):
            load_generator(path)


    @pytest.mark.parametrize("section, key, value", [
        ("generator", "cond_drop", 0.1), ("generator", "gumbel_start", 1.0),
        ("generator", "gumbel_end", 0.1), ("generator", "max_tokens", 256),
        ("condition", "filter_warmup_frac", 0.5)])
    def test_retired_checkpoint_key(self, tiny_generator, tmp_path, section, key, value):
        path = tmp_path / "gen.snc"
        save_generator(path, tiny_generator)
        kind, config, seed, arrays = load_checkpoint(path)
        config[section][key] = value
        save_checkpoint(path, kind, config, seed, arrays)
        back = load_generator(path)
        assert back.config == tiny_generator.config
        assert back.cond_encoder.config == tiny_generator.cond_encoder.config
        config[section][key] = value + 0.25
        save_checkpoint(path, kind, config, seed, arrays)
        with pytest.raises(ParameterError, match=f"{section}.{key}"):
            load_generator(path)

    def test_track_past_the_position_table(self, tiny_generator, tiny_tokenizer):
        part = generate_track(seed=3, duration_s=20.0)
        track = MusicTrack(np.concatenate([part.features, part.features]),
                           np.concatenate([part.beat_times, part.beat_times + 20.0]),
                           part.genre_id, part.emotion_id, 40.0)
        before = tiny_generator.forward_count
        with pytest.raises(ParameterError, match="limit of 256"):
            generate(tiny_generator, tiny_tokenizer, track, GenerationConfig(iterations=2))
        assert tiny_generator.forward_count == before
        cond, feats = np.zeros((1, 256)), np.zeros((1, 257, 140))
        with pytest.raises(ParameterError, match="limit of 256"):
            tiny_generator.forward_base(np.zeros((1, 3, 257), dtype=np.int64), cond, feats)
        with pytest.raises(ParameterError, match="limit of 256"):
            tiny_generator.forward_residual(np.zeros((1, 3, 257, 32)), 1, cond, feats)


class TestFrozenShapes:
    @pytest.mark.parametrize("key, value, frozen", [("codebook_size", 32, 64),
                                                    ("codebook_size", 8, 64),
                                                    ("code_dim", 16, 32),
                                                    ("layers_v", 1, 2),
                                                    ("music_latent", 128, 256)])
    def test_mismatch_names_both_values(self, tiny_generator, tiny_tokenizer, tiny_retrieval_pair,
                                        tiny_corpus, key, value, frozen):
        cfg = dataclasses.replace(tiny_generator.config, steps=1, **{key: value})
        body, whole = tiny_retrieval_pair["body"], tiny_retrieval_pair["whole"]
        pattern = f"{key}={value} .*={frozen}$"
        train = [s for s in tiny_corpus if s.split == "train"][:2]
        with pytest.raises(ParameterError, match=pattern):
            train_generator(train, tiny_tokenizer, body, whole, cfg)
        model = MaskedGenerator(cfg)
        model.cond_encoder = whole
        with pytest.raises(ParameterError, match=pattern):
            generate(model, tiny_tokenizer, tiny_corpus[0].track, GenerationConfig(iterations=2))
        assert model.forward_count == 0


class TestTapeFree:
    def test_generate_leaves_no_grads_and_matches_taped_run(self, tiny_generator, tiny_tokenizer,
                                                             tiny_corpus, tmp_path, tape_probe):
        save_generator(tmp_path / "gen.snc", tiny_generator)
        save_tokenizer(tmp_path / "tok.snc", tiny_tokenizer)
        model, tok = load_generator(tmp_path / "gen.snc"), load_tokenizer(tmp_path / "tok.snc")
        track = tiny_corpus[0].track
        gcfg = GenerationConfig(iterations=3, seed=4)
        with tape_probe() as counts:
            free = generate(model, tok, track, gcfg)
        assert counts["taped"] == 0
        for m in (model, tok, model.cond_encoder):
            assert all(p.grad is None for p in m.parameters())
        with tape_probe(force=True) as counts:
            taped = generate(model, tok, track, gcfg)
        assert counts["taped"] > 0
        np.testing.assert_array_equal(free.data, taped.data)

    def test_masked_accuracy_matches_taped_run(self, tiny_generator, tiny_tokenizer, tiny_corpus,
                                               tape_probe):
        test = [s for s in tiny_corpus if s.split == "test"][:3]
        with tape_probe() as counts:
            free = masked_accuracy(tiny_generator, tiny_tokenizer, test, seed=2)
        assert counts["taped"] == 0
        with tape_probe(force=True):
            assert masked_accuracy(tiny_generator, tiny_tokenizer, test, seed=2) == free

    @staticmethod
    def _exact_gelu(monkeypatch) -> list:
        """Give tape-free transformer blocks `Tensor.gelu`'s bit-exact cube;
        returns the list its calls are counted in."""
        from dancegen.nn import Tensor, layers

        calls = []

        def exact(x):
            calls.append(x.shape)
            return Tensor(x).gelu().data

        monkeypatch.setattr(layers, "_tape_free_gelu", exact)
        return calls

    def test_generate_is_bitwise_that_of_the_exact_gelu(self, tiny_generator, tiny_tokenizer,
                                                        tiny_corpus, monkeypatch):
        from dancegen import tokenizer

        grids = []
        decode = tokenizer.decode

        def recording_decode(tok, grid):
            grids.append(grid.indices.copy())
            return decode(tok, grid)

        monkeypatch.setattr(tokenizer, "decode", recording_decode)
        tracks = [tiny_corpus[0].track, generate_track(seed=21, duration_s=6.5, bpm=112.0),
                  generate_track(seed=22, duration_s=9.0, bpm=131.0)]

        def run_all():
            start = len(grids)
            frames = [generate(tiny_generator, tiny_tokenizer, track,
                               GenerationConfig(seed=seed)).data
                      for track in tracks for seed in (3, 8)]
            return grids[start:], frames

        shipped = run_all()
        calls = self._exact_gelu(monkeypatch)
        exact = run_all()
        assert calls
        assert len(shipped[0]) == len(exact[0]) == 6
        for a, b in zip(shipped[0] + shipped[1], exact[0] + exact[1]):
            np.testing.assert_array_equal(a, b)

    def test_masked_accuracy_is_bitwise_that_of_the_exact_gelu(self, tiny_generator, tiny_tokenizer,
                                                               tiny_corpus, monkeypatch):
        preds = []
        forward_base = tiny_generator.forward_base

        def recording_forward(*args, **kwargs):
            out = forward_base(*args, **kwargs)
            preds.append(np.argmax(out.data, axis=-1))
            return out

        monkeypatch.setattr(tiny_generator, "forward_base", recording_forward)
        test = [s for s in tiny_corpus if s.split == "test"][:3]

        def run_all():
            start = len(preds)
            accs = [masked_accuracy(tiny_generator, tiny_tokenizer, test, seed=seed)
                    for seed in (1, 2)]
            return accs, preds[start:]

        shipped = run_all()
        calls = self._exact_gelu(monkeypatch)
        exact = run_all()
        assert calls
        assert shipped[0] == exact[0]
        assert len(shipped[1]) == len(exact[1]) == 6
        for a, b in zip(shipped[1], exact[1]):
            np.testing.assert_array_equal(a, b)

    def test_missing_condition_array_named(self, tiny_generator, tmp_path):
        path = tmp_path / "gen.snc"
        save_generator(path, tiny_generator)
        kind, config, seed, arrays = load_checkpoint(path)
        del arrays["cond_encoder.norm.music_std"]
        save_checkpoint(path, kind, config, seed, arrays)
        with pytest.raises(ParameterError, match="cond_encoder.norm.music_std"):
            load_generator(path)


class TestTrainGenerator:
    def test_deterministic(self, tiny_corpus, tiny_tokenizer, tiny_retrieval_pair):
        from dancegen.generator import train_generator

        train = [s for s in tiny_corpus if s.split == "train"][:6]
        cfg = GeneratorConfig(codebook_size=64, code_dim=32, layers_v=2, width=16,
                              depth=1, res_depth=1, heads=2, steps=4, batch=4,
                              lr=1e-3, warmup_steps=2, seed=31)
        a = train_generator(train, tiny_tokenizer, tiny_retrieval_pair["body"],
                            tiny_retrieval_pair["whole"], cfg)
        b = train_generator(train, tiny_tokenizer, tiny_retrieval_pair["body"],
                            tiny_retrieval_pair["whole"], cfg)
        for (ka, va), (kb, vb) in zip(sorted(a.state().items()),
                                      sorted(b.state().items())):
            np.testing.assert_array_equal(va, vb, err_msg=ka)

    def test_encoded_training_set_trains_like_the_samples(self, tiny_corpus, tiny_tokenizer,
                                                          tiny_retrieval_pair):
        from dancegen.generator import _fit_generator, encode_training_set, train_generator

        train = [s for s in tiny_corpus if s.split == "train"][:6]
        body, whole = tiny_retrieval_pair["body"], tiny_retrieval_pair["whole"]
        cfg = GeneratorConfig(codebook_size=64, code_dim=32, layers_v=2, width=16,
                              depth=1, res_depth=1, heads=2, steps=4, batch=4,
                              lr=1e-3, warmup_steps=2, seed=32)
        encoded = encode_training_set(train, tiny_tokenizer, body, whole)
        assert encoded.grids.shape[:3] == (6, 3, 3)
        assert encoded.cond.shape[0] == encoded.c_body.shape[0] == encoded.feats.shape[0] == 6
        a = train_generator(train, tiny_tokenizer, body, whole, cfg)
        b = _fit_generator(encoded, tiny_tokenizer, body, whole, cfg)
        for (ka, va), (kb, vb) in zip(sorted(a.state().items()),
                                      sorted(b.state().items())):
            np.testing.assert_array_equal(va, vb, err_msg=ka)
