"""Quantizer oracle, residual ladder identities, codec contracts, training."""

import dataclasses

import numpy as np
import pytest

from dancegen import nn
from dancegen.errors import (
    InvalidTokenError,
    NumericInputError,
    ParameterError,
    ShapeError,
    TooShortError,
)
from dancegen.io import load_checkpoint, save_checkpoint
from dancegen.motion import FRAME_WIDTH, MotionSequence
from dancegen.nn.rng import generator
from dancegen.pipeline import RunConfig
from dancegen.tokenizer import (
    Codebook,
    MotionTokenizer,
    TokenGrid,
    TokenizerConfig,
    decode,
    encode,
    load_tokenizer,
    quantize_vector,
    save_tokenizer,
    tokenizer_loss,
    train_tokenizer,
)


def _make_codebook(rng, size=16, dim=6):
    cb = Codebook(size, dim)
    cb.init_from(rng.normal(size=(40, dim)), rng)
    return cb


class TestQuantizeVector:
    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            cb = _make_codebook(rng, size=int(rng.integers(2, 30)), dim=int(rng.integers(2, 10)))
            v = rng.normal(size=cb.codes.shape[1])
            idx, code = quantize_vector(cb, v)
            d = ((cb.codes - v) ** 2).sum(axis=1)
            best = int(np.argmin(d))
            assert idx == best
            np.testing.assert_array_equal(code, cb.codes[best])

    def test_exact_match_zero_residual(self):
        rng = np.random.default_rng(1)
        cb = _make_codebook(rng)
        idx, code = quantize_vector(cb, cb.codes[3].copy())
        assert idx == 3
        np.testing.assert_array_equal(code, cb.codes[3])

    def test_tie_breaks_to_smallest_index(self):
        cb = Codebook(2, 2)
        cb.codes = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx, _ = quantize_vector(cb, np.array([0.5, 0.5]))
        assert idx == 0

    def test_example_nearest(self):
        cb = Codebook(2, 2)
        cb.codes = np.array([[0.0, 0.0], [1.0, 1.0]])
        idx, _ = quantize_vector(cb, np.array([0.9, 0.8]))
        assert idx == 1

    def test_nan_rejected(self):
        cb = _make_codebook(np.random.default_rng(2))
        with pytest.raises(NumericInputError):
            quantize_vector(cb, np.array([np.nan] * cb.codes.shape[1]))


class TestCodebookEma:
    def test_codes_equal_ema_ratio(self):
        rng = np.random.default_rng(3)
        cb = _make_codebook(rng, size=8, dim=4)
        for _ in range(5):
            latents = rng.normal(size=(40, 4))
            idx = cb.assign(latents)
            cb.ema_update(latents, idx, decay=0.9)
            alive = cb.ema_count > 0
            np.testing.assert_allclose(cb.codes[alive],
                                       cb.ema_sum[alive] / cb.ema_count[alive, None],
                                       atol=1e-5)

    def test_dead_code_reset(self):
        rng = np.random.default_rng(4)
        cb = _make_codebook(rng, size=8, dim=4)
        latents = rng.normal(size=(10, 4))
        idx = np.zeros(10, dtype=np.int64)  # only code 0 used
        cb.usage[:] = 0
        cb.ema_update(latents, idx, decay=0.9)
        reset = cb.reset_dead(latents, rng)
        assert reset == 7
        assert np.all(cb.usage == 0)


class TestEncodeDecode:
    def test_telescoping_identity_untrained(self):
        rng = np.random.default_rng(5)
        for trial in range(6):
            cfg = TokenizerConfig(codebook_size=32, code_dim=16, layers=int(rng.integers(1, 4)),
                                  hidden=12, seed=trial)
            model = MotionTokenizer(cfg)
            frames = rng.normal(size=(2, 16, FRAME_WIDTH))
            from dancegen.tokenizer import _init_codebooks
            _init_codebooks(model, frames, rng)
            seq = MotionSequence(rng.normal(size=(16, FRAME_WIDTH)))
            res = encode(model, seq)
            for part in ("body", "hand", "face"):
                total = sum(res.quantized[part]) + res.final_residual[part]
                assert np.abs(total - res.initial[part]).max() < 1e-5

    def test_token_shape_and_downscale(self, tiny_tokenizer):
        seq = MotionSequence(np.random.default_rng(6).normal(size=(16, FRAME_WIDTH)))
        res = encode(tiny_tokenizer, seq)
        assert res.grid.indices.shape == (3, 3, 4)  # layers+1=3, parts, 16/4
        assert res.grid.n_frames == 16

    def test_token_range(self, tiny_tokenizer, tiny_corpus):
        res = encode(tiny_tokenizer, tiny_corpus[0].motion)
        assert res.grid.indices.min() >= 0
        assert res.grid.indices.max() < tiny_tokenizer.config.codebook_size

    def test_decode_shape_roundtrip(self, tiny_tokenizer, tiny_corpus):
        seq = tiny_corpus[0].motion
        rec = decode(tiny_tokenizer, encode(tiny_tokenizer, seq).grid)
        assert rec.data.shape == seq.data.shape
        assert rec.fps == seq.fps

    def test_decode_deterministic(self, tiny_tokenizer, tiny_corpus):
        grid = encode(tiny_tokenizer, tiny_corpus[1].motion).grid
        a = decode(tiny_tokenizer, grid)
        b = decode(tiny_tokenizer, grid)
        np.testing.assert_array_equal(a.data, b.data)

    def test_invalid_token_rejected(self, tiny_tokenizer):
        grid = TokenGrid(np.full((3, 3, 4), 999, dtype=np.int64), 16)
        with pytest.raises(InvalidTokenError):
            decode(tiny_tokenizer, grid)

    def test_too_short_encode(self, tiny_tokenizer):
        class Stub:
            frames = 3
            fps = 30
            data = np.zeros((3, FRAME_WIDTH))

        with pytest.raises(TooShortError):
            encode(tiny_tokenizer, Stub())

    def test_pad_and_record_non_multiple(self, tiny_tokenizer):
        seq = MotionSequence(np.random.default_rng(7).normal(size=(18, FRAME_WIDTH)))
        res = encode(tiny_tokenizer, seq)
        assert res.grid.n == 5  # ceil(18/4) timesteps
        rec = decode(tiny_tokenizer, res.grid)
        assert rec.frames == 18

    def test_body_token_perturbation_moves_hand_channels(self, tiny_tokenizer, tiny_corpus):
        from dancegen.motion import default_spans

        grid = encode(tiny_tokenizer, tiny_corpus[2].motion).grid
        base = decode(tiny_tokenizer, grid)
        bumped = TokenGrid(grid.indices.copy(), grid.n_frames, grid.fps)
        t = 2
        bumped.indices[0, 0, t] = (bumped.indices[0, 0, t] + 1) % tiny_tokenizer.config.codebook_size
        other = decode(tiny_tokenizer, bumped)
        hand_idx = default_spans().indices("hand")
        window = slice(4 * t, 4 * (t + 1))
        delta = np.abs(other.data[window][:, hand_idx] - base.data[window][:, hand_idx])
        assert delta.max() >= 1e-6


class TestVqDegeneration:
    def test_single_layer_equals_plain_vq(self):
        rng = np.random.default_rng(8)
        cfg = TokenizerConfig(codebook_size=32, code_dim=16, layers=0, hidden=12, seed=9)
        model = MotionTokenizer(cfg)
        frames = rng.normal(size=(2, 16, FRAME_WIDTH))
        from dancegen.tokenizer import _init_codebooks
        _init_codebooks(model, frames, rng)
        seq = MotionSequence(rng.normal(size=(16, FRAME_WIDTH)))
        res = encode(model, seq)
        assert res.grid.layer_count == 1
        # plain VQ reference: quantize the encoder latents directly
        latents = model.encode_latents(seq.data[None])
        for pi, part in enumerate(("body", "hand", "face")):
            flat = latents[part].data[0].T
            ref = np.array([quantize_vector(model.codebooks[part][0], v)[0] for v in flat])
            np.testing.assert_array_equal(res.grid.indices[0, pi], ref)
            ref_codes = model.codebooks[part][0].codes[ref]
            np.testing.assert_allclose(res.quantized[part][0], ref_codes, atol=1e-12)


class TestTokenizerLoss:
    def test_zero_for_perfect_model(self, tiny_tokenizer, tiny_corpus):
        # alpha=beta=gamma=0 and identical recon gives exactly the L1 term;
        # a fabricated perfect case: compare loss value against direct L1
        batch = np.stack([tiny_corpus[0].motion.data])
        loss = tokenizer_loss(tiny_tokenizer, batch)
        rec = decode(tiny_tokenizer, encode(tiny_tokenizer, tiny_corpus[0].motion).grid)
        direct = np.abs((rec.data - batch[0]) / tiny_tokenizer.norm_std).mean()
        assert loss.recon.data == pytest.approx(direct, rel=1e-9)

    def test_weight_zeroing_gives_pure_l1(self, tiny_train_frames):
        cfg = TokenizerConfig(codebook_size=32, code_dim=16, layers=2, hidden=12,
                              alpha=0.0, beta=0.0, gamma=0.0, seed=4)
        model = MotionTokenizer(cfg)
        model.set_normalizer(tiny_train_frames.reshape(-1, FRAME_WIDTH))
        from dancegen.tokenizer import _init_codebooks
        _init_codebooks(model, tiny_train_frames[:2], np.random.default_rng(0))
        loss = tokenizer_loss(model, tiny_train_frames[:2])
        assert loss.total.data == pytest.approx(loss.recon.data, abs=1e-12)

    def test_components_nonnegative(self, tiny_tokenizer, tiny_train_frames):
        loss = tokenizer_loss(tiny_tokenizer, tiny_train_frames[:3])
        for part in (loss.total, loss.recon, loss.embed_body, loss.embed_hand, loss.embed_face):
            assert float(part.data) >= 0.0

    def test_empty_batch_rejected(self, tiny_tokenizer):
        with pytest.raises(ParameterError):
            tokenizer_loss(tiny_tokenizer, np.zeros((0, 16, FRAME_WIDTH)))

    def test_soft_loss_gradient_matches_finite_difference(self, tiny_train_frames):
        cfg = TokenizerConfig(codebook_size=8, code_dim=6, layers=1, hidden=6, seed=6)
        model = MotionTokenizer(cfg)
        model.set_normalizer(tiny_train_frames.reshape(-1, FRAME_WIDTH))
        from dancegen.tokenizer import _init_codebooks
        _init_codebooks(model, tiny_train_frames[:2], np.random.default_rng(1))
        batch = tiny_train_frames[:1, :8]
        # freeze the stop-gradient targets so finite differences see the same
        # constants the analytic gradient treats as fixed
        first = tokenizer_loss(model, batch, soft_tau=2.0)
        frozen = {p: [c.copy() for c in first.ladder[p]["code_values"]]
                  for p in ("body", "hand", "face")}

        def loss_value():
            return float(tokenizer_loss(model, batch, soft_tau=2.0,
                                        commit_targets=frozen).total.data)

        model.zero_grad()
        tokenizer_loss(model, batch, soft_tau=2.0, commit_targets=frozen).total.backward()
        params = model.named_parameters()
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 20:
            name, p = params[rng.integers(len(params))]
            if p.grad is None:
                continue
            pos = tuple(rng.integers(s) for s in p.data.shape)
            h = 1e-4
            orig = p.data[pos]
            p.data[pos] = orig + h
            up = loss_value()
            p.data[pos] = orig - h
            down = loss_value()
            p.data[pos] = orig
            fd = (up - down) / (2 * h)
            an = p.grad[pos]
            if abs(fd) < 1e-9 and abs(an) < 1e-9:
                checked += 1
                continue
            assert abs(an - fd) <= 2e-3 * max(abs(an), abs(fd)), name
            checked += 1


class TestTraining:
    def test_determinism_bitwise(self, tiny_train_frames):
        cfg = TokenizerConfig(codebook_size=32, code_dim=16, layers=2, hidden=12,
                              steps=8, batch=4, crop_frames=32, seed=13,
                              refit_every=4, warmup_steps=2)
        a = train_tokenizer(tiny_train_frames, cfg)
        b = train_tokenizer(tiny_train_frames, cfg)
        for (ka, va), (kb, vb) in zip(sorted(a.state().items()), sorted(b.state().items())):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)

    def test_dropout_isolation(self, tiny_train_frames):
        # with its own rng stream, a no-drop draw at q=0.2 must match q=0
        base = dict(codebook_size=32, code_dim=16, layers=2, hidden=12,
                    steps=1, batch=4, seed=77, refit_every=0, final_passes=0,
                    warmup_steps=1)
        m0 = train_tokenizer(tiny_train_frames, TokenizerConfig(dropout_q=0.0, **base))
        m1 = train_tokenizer(tiny_train_frames, TokenizerConfig(dropout_q=0.2, **base))
        # seed 77 draws uniform() >= 0.2 on the first step (checked below)
        drop_rng = generator(77, "tokenizer-dropout")
        assert drop_rng.uniform() >= 0.2
        for (ka, va), (kb, vb) in zip(sorted(m0.state().items()), sorted(m1.state().items())):
            np.testing.assert_array_equal(va, vb, err_msg=ka)

    def test_loss_drops_in_smoke_run(self, tiny_train_frames):
        # evaluate the same fixed batch through the virgin model and the
        # trained one; the acceptance suite asserts the frozen threshold at
        # its larger scale
        from dancegen.motion import FRAME_WIDTH
        from dancegen.tokenizer import MotionTokenizer

        cfg = TokenizerConfig(codebook_size=64, code_dim=32, layers=2, hidden=16,
                              steps=60, batch=6, crop_frames=32, lr=1e-3,
                              warmup_steps=5, refit_every=15, seed=14)
        batch = tiny_train_frames[:6]
        virgin = MotionTokenizer(cfg)
        virgin.set_normalizer(tiny_train_frames.reshape(-1, FRAME_WIDTH))
        initial = float(tokenizer_loss(virgin, batch).recon.data)
        model = train_tokenizer(tiny_train_frames, cfg)
        final = float(tokenizer_loss(model, batch).recon.data)
        assert final < 0.9 * initial

    def test_checkpoint_roundtrip(self, tiny_tokenizer, tiny_corpus, tmp_path):
        path = tmp_path / "tok.snc"
        save_tokenizer(path, tiny_tokenizer)
        back = load_tokenizer(path)
        grid = encode(tiny_tokenizer, tiny_corpus[0].motion).grid
        grid2 = encode(back, tiny_corpus[0].motion).grid
        np.testing.assert_array_equal(grid.indices, grid2.indices)
        np.testing.assert_array_equal(decode(tiny_tokenizer, grid).data,
                                      decode(back, grid).data)


def _earlier_layout_arrays(cfg: TokenizerConfig) -> dict[str, np.ndarray]:
    """Arrays that checkpoints of the earlier tokenizer layout also hold: the
    decoder's conv trunk, the chain's mixers and constant-norm scales."""
    rng = np.random.default_rng(0)
    d, hid = cfg.code_dim, cfg.hidden
    trunk = {"conv0": nn.Conv1d(3 * d, hid, 3, rng, padding=1), "res1": nn.ResConv1d(hid, rng),
             "up1": nn.Conv1d(hid, hid, 3, rng, padding=1), "res2": nn.ResConv1d(hid, rng),
             "up2": nn.Conv1d(hid, hid, 3, rng, padding=1),
             "head": nn.Conv1d(hid + 4, FRAME_WIDTH, 3, rng, padding=1)}
    out = {f"decoder.{name}.{k}": v for name, m in trunk.items() for k, v in m.state().items()}
    for part in ("hand", "face"):
        for slot in range(cfg.layers + 2):
            mixer = {"fc1": nn.Conv1d(2 * d, d, 1, rng), "fc2": nn.Conv1d(d, d, 1, rng),
                     "conv": nn.Conv1d(d, d, 3, rng, padding=1)}
            out.update({f"{part}_mixers.{slot}.{name}.{k}": v
                        for name, m in mixer.items() for k, v in m.state().items()})
    out["norm.enc_scales"] = np.ones(3)
    return out


EARLIER_DEFAULTS = {"estimator": "st", "latent_norm": "rms", "dec_lr_scale": 0.0,
                    "gumbel_start": 1.0, "gumbel_end": 0.1, "conditioning": "chain",
                    "mixer_lr_scale": 0.0}


class TestCheckpointCompat:
    def test_earlier_layout_loads(self, tiny_tokenizer, tiny_corpus, tmp_path):
        cfg = tiny_tokenizer.config
        path = tmp_path / "earlier.snc"
        arrays = {**tiny_tokenizer.state(), **_earlier_layout_arrays(cfg)}
        save_checkpoint(path, "tokenizer", {**cfg.to_dict(), **EARLIER_DEFAULTS}, cfg.seed, arrays)
        back = load_tokenizer(path)
        assert back.config == cfg
        for sample in tiny_corpus[:3]:
            grid = encode(tiny_tokenizer, sample.motion).grid
            np.testing.assert_array_equal(encode(back, sample.motion).grid.indices, grid.indices)
            np.testing.assert_array_equal(decode(back, grid).data, decode(tiny_tokenizer, grid).data)

    def test_earlier_run_config_loads(self):
        doc = RunConfig().to_dict()
        doc["hrvq"].update(EARLIER_DEFAULTS)
        assert RunConfig.from_dict(doc).hrvq == TokenizerConfig()

    def test_plain_stack_config_loads(self, tiny_tokenizer, tmp_path):
        # at mixer_lr_scale 0 both conditioning values ran plain stacks
        cfg = tiny_tokenizer.config
        doc = {**cfg.to_dict(), **EARLIER_DEFAULTS, "conditioning": "none"}
        path = tmp_path / "plain.snc"
        save_checkpoint(path, "tokenizer", doc, cfg.seed, tiny_tokenizer.state())
        assert load_tokenizer(path).config == cfg
        assert RunConfig.from_dict({"hrvq": doc}).hrvq == cfg

    @pytest.mark.parametrize("key, value", [("latent_norm", "const"),
                                            ("estimator", "gumbel"),
                                            ("dec_lr_scale", 0.5),
                                            ("mixer_lr_scale", 1.0)])
    def test_retired_behaviour_rejected(self, tiny_tokenizer, tmp_path, key, value):
        cfg = tiny_tokenizer.config
        path = tmp_path / "retired.snc"
        save_checkpoint(path, "tokenizer", {**cfg.to_dict(), key: value}, cfg.seed,
                        tiny_tokenizer.state())
        with pytest.raises(ParameterError, match=key):
            load_tokenizer(path)
        with pytest.raises(ParameterError, match=key):
            RunConfig.from_dict({"hrvq": {key: value}})

    @pytest.mark.parametrize("key, value", [("batch", 0), ("layers", -1), ("codebook_size", 0),
                                            ("code_dim", 0), ("hidden", 0), ("crop_frames", -4)])
    def test_out_of_range_field_rejected(self, tiny_tokenizer, tmp_path, key, value):
        with pytest.raises(ParameterError, match=f"TokenizerConfig.{key} must be"):
            TokenizerConfig(**{key: value})
        with pytest.raises(ParameterError, match=f"TokenizerConfig.{key} must be"):
            dataclasses.replace(tiny_tokenizer.config, **{key: value})
        with pytest.raises(ParameterError, match=f"TokenizerConfig.{key} must be"):
            RunConfig.from_dict({"hrvq": {key: value}})
        cfg = tiny_tokenizer.config
        path = tmp_path / "range.snc"
        save_checkpoint(path, "tokenizer", {**cfg.to_dict(), key: value}, cfg.seed,
                        tiny_tokenizer.state())
        with pytest.raises(ParameterError, match=f"TokenizerConfig.{key} must be"):
            load_tokenizer(path)

    def test_unknown_config_key_rejected(self, tiny_tokenizer, tmp_path):
        cfg = tiny_tokenizer.config
        path = tmp_path / "unknown.snc"
        save_checkpoint(path, "tokenizer", {**cfg.to_dict(), "codebok_size": 3}, cfg.seed,
                        tiny_tokenizer.state())
        with pytest.raises(ParameterError, match="hrvq.codebok_size"):
            load_tokenizer(path)

    def test_missing_and_misshaped_arrays(self, tiny_tokenizer, tmp_path):
        path = tmp_path / "tok.snc"
        save_tokenizer(path, tiny_tokenizer)
        kind, config, seed, arrays = load_checkpoint(path)
        missing = {k: v for k, v in arrays.items() if k != "decoder.skip.weight"}
        save_checkpoint(path, kind, config, seed, missing)
        with pytest.raises(ParameterError, match="decoder.skip.weight"):
            load_tokenizer(path)
        arrays["decoder.skip.bias"] = arrays["decoder.skip.bias"][:-1]
        save_checkpoint(path, kind, config, seed, arrays)
        with pytest.raises(ShapeError, match="decoder.skip.bias"):
            load_tokenizer(path)

    @pytest.mark.parametrize("name", ["codebook.body.0.codes", "codebook.face.2.usage",
                                      "norm.std"])
    def test_missing_codebook_and_norm_arrays_named(self, tiny_tokenizer, tmp_path, name):
        path = tmp_path / "tok.snc"
        save_tokenizer(path, tiny_tokenizer)
        kind, config, seed, arrays = load_checkpoint(path)
        del arrays[name]
        save_checkpoint(path, kind, config, seed, arrays)
        with pytest.raises(ParameterError, match=name):
            load_tokenizer(path)

    def test_misshaped_codebook_named(self, tiny_tokenizer, tmp_path):
        path = tmp_path / "tok.snc"
        save_tokenizer(path, tiny_tokenizer)
        kind, config, seed, arrays = load_checkpoint(path)
        arrays["codebook.hand.1.codes"] = arrays["codebook.hand.1.codes"][:, :-1]
        save_checkpoint(path, kind, config, seed, arrays)
        with pytest.raises(ShapeError, match="codebook.hand.1.codes"):
            load_tokenizer(path)


class TestTapeFree:
    def test_encode_decode_leave_no_grads_and_match_taped_run(self, tiny_tokenizer, tiny_corpus,
                                                               tmp_path, tape_probe):
        save_tokenizer(tmp_path / "tok.snc", tiny_tokenizer)
        model = load_tokenizer(tmp_path / "tok.snc")
        seq = tiny_corpus[0].motion
        with tape_probe() as counts:
            free = encode(model, seq)
            frames = decode(model, free.grid).data
        assert counts["taped"] == 0
        assert all(p.grad is None for p in model.parameters())
        with tape_probe(force=True) as counts:
            taped = encode(model, seq)
            taped_frames = decode(model, taped.grid).data
        assert counts["taped"] > 0
        np.testing.assert_array_equal(free.grid.indices, taped.grid.indices)
        for part in free.quantized:
            np.testing.assert_array_equal(free.initial[part], taped.initial[part])
            np.testing.assert_array_equal(free.final_residual[part], taped.final_residual[part])
        np.testing.assert_array_equal(frames, taped_frames)

    def test_training_matches_taped_run(self, tiny_train_frames, tape_probe):
        cfg = TokenizerConfig(codebook_size=32, code_dim=16, layers=2, hidden=12,
                              steps=4, batch=4, crop_frames=32, seed=13,
                              refit_every=2, warmup_steps=2)
        log_free, log_taped = [], []
        free = train_tokenizer(tiny_train_frames, cfg, log=log_free)
        with tape_probe(force=True):
            taped = train_tokenizer(tiny_train_frames, cfg, log=log_taped)
        assert log_free == log_taped and log_free[0]["step"] == -1
        for (ka, va), (kb, vb) in zip(sorted(free.state().items()), sorted(taped.state().items())):
            np.testing.assert_array_equal(va, vb, err_msg=ka)

    def test_loss_and_decoder_keep_the_tape(self, tiny_train_frames):
        from dancegen.tokenizer import decoder_apply

        model = MotionTokenizer(TokenizerConfig(codebook_size=16, code_dim=8, layers=1,
                                                hidden=8, seed=2))
        for part in model.codebooks:
            for cb in model.codebooks[part]:
                cb.init_from(np.random.default_rng(0).normal(size=(32, 8)),
                             np.random.default_rng(1))
        loss = tokenizer_loss(model, tiny_train_frames[:2, :16])
        assert loss.total.requires_grad
        loss.total.backward()
        assert all(p.grad is not None for p in model.encoders[0].parameters())
        sums = nn.Tensor(np.ones((1, 24, 3)), requires_grad=True)
        out = decoder_apply(model, sums)
        assert out.requires_grad
        out.sum().backward()
        assert sums.grad is not None and np.any(sums.grad != 0)
