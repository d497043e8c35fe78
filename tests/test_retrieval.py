"""Contrastive objective closed values, encoder contracts, retrieval math."""

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import dataclasses

import numpy as np
import pytest

from dancegen.errors import (
    PairingError,
    ParameterError,
    ShapeError,
    TooShortError,
    VariantError,
)
from dancegen import retrieval
from dancegen.motion import FRAME_WIDTH, MotionSequence, default_spans
from dancegen.nn import Tensor
from dancegen.pipeline import RunConfig
from dancegen.retrieval import (
    DualEncoder,
    RetrievalConfig,
    encode_motion,
    encode_motion_many,
    encode_music,
    encode_music_many,
    false_negative_mask,
    info_nce,
    median_rank,
    rank_by_cosine,
    recall_at_k,
    retrieval_ranks,
    retrieve,
    save_retrieval,
    load_retrieval,
    segment_latents,
    similarity_matrix,
    train_retrieval,
)
from dancegen.synth import TRACK_FEATURE_DIM


class TestInfoNce:
    def test_all_equal_gives_log_n(self):
        for n in (2, 5, 9):
            S = np.ones((n, n)) * 1.0
            assert info_nce(S).item() == pytest.approx(np.log(n), abs=1e-9)

    def test_strong_diagonal_value(self):
        S = np.array([[10.0, 0.0], [0.0, 10.0]])
        v = info_nce(S).item()
        expected = -np.log(np.exp(10) / (np.exp(10) + 1))  # per row and column
        assert v == pytest.approx(expected, rel=1e-9)
        assert v == pytest.approx(4.54e-5, rel=2e-2)

    def test_perfect_separation_limit(self):
        S = 80.0 * np.eye(3)
        assert info_nce(S).item() <= 1e-10

    def test_transpose_invariance(self):
        rng = np.random.default_rng(0)
        S = rng.normal(size=(6, 6)) * 3
        assert info_nce(S).item() == pytest.approx(info_nce(S.T).item(), abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        S = rng.normal(size=(5, 5))
        assert info_nce(S + 3.7).item() == pytest.approx(info_nce(S).item(), abs=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert info_nce(rng.normal(size=(4, 4)) * 5).item() >= 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            info_nce(np.zeros((3, 4)))

    def test_non_finite_rejected(self):
        S = np.zeros((3, 3))
        S[0, 1] = np.inf
        with pytest.raises(ShapeError):
            info_nce(S)

    def test_mask_removes_negative_from_denominator(self):
        S = np.array([[5.0, 5.0], [0.0, 5.0]])
        keep = np.array([[True, False], [True, True]])
        # with (0,1) excluded, row 0 sees only its positive
        masked = info_nce(S, keep).item()
        plain = info_nce(S).item()
        assert masked < plain

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        from dancegen.nn import Tensor

        S0 = rng.normal(size=(4, 4))
        t = Tensor(S0.copy(), requires_grad=True)
        info_nce(t).backward()
        for _ in range(10):
            i, j = rng.integers(4), rng.integers(4)
            h = 1e-6
            up = S0.copy(); up[i, j] += h
            down = S0.copy(); down[i, j] -= h
            fd = (info_nce(up).item() - info_nce(down).item()) / (2 * h)
            assert t.grad[i, j] == pytest.approx(fd, abs=1e-6)


class TestFalseNegativeMask:
    def test_masks_similar_pairs(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        c = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        keep = false_negative_mask(z, c, threshold=0.8)
        assert not keep[0, 1]  # identical motion latents
        assert not keep[0, 2]  # identical music latents
        assert keep[1, 2]
        assert keep.diagonal().all()


class TestEncoders:
    def test_unit_norm(self, tiny_retrieval_pair, tiny_corpus):
        for variant, model in tiny_retrieval_pair.items():
            z = encode_motion(model, tiny_corpus[0].motion)
            c = encode_music(model, tiny_corpus[0].track)
            assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-5)
            assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-5)
            assert z.shape == (256,)

    def test_determinism(self, tiny_retrieval_pair, tiny_corpus):
        # the uncached primitive, so both calls run the encoder
        model = tiny_retrieval_pair["whole"]
        frames = tiny_corpus[0].motion.data[None]
        a = encode_motion_many(model, frames)[0]
        b = encode_motion_many(model, frames)[0]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(encode_motion(model, tiny_corpus[0].motion), a)

    def test_seed_changes_track_latent(self, tiny_retrieval_pair):
        from dancegen.synth import generate_track

        model = tiny_retrieval_pair["whole"]
        a = encode_music(model, generate_track(seed=1, duration_s=4.0, bpm=120.0))
        b = encode_music(model, generate_track(seed=2, duration_s=4.0, bpm=120.0))
        assert float(a @ b) < 0.999

    def test_variant_width_mismatch(self, tiny_retrieval_pair):
        model = tiny_retrieval_pair["body"]
        with pytest.raises(VariantError):
            model.motion_slice(np.zeros((4, 500)))

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ParameterError):
            DualEncoder(RetrievalConfig(hidden=10, heads=4))

    def test_body_variant_accepts_full_frames(self, tiny_retrieval_pair, tiny_corpus):
        z = encode_motion(tiny_retrieval_pair["body"], tiny_corpus[0].motion)
        assert np.linalg.norm(z) == pytest.approx(1.0, abs=1e-5)

    def test_tensor_frames_encode_like_arrays_and_take_gradient(self):
        model = DualEncoder(RetrievalConfig(variant="body", hidden=8, latent_dim=16, heads=2))
        rng = np.random.default_rng(3)
        model.motion_mean = rng.normal(size=263)
        model.motion_std = rng.uniform(0.5, 2.0, size=263)
        frames = rng.normal(size=(2, 16, FRAME_WIDTH))
        x = Tensor(frames, requires_grad=True)
        z = model.encode_motion_batch(x)
        np.testing.assert_array_equal(z.data, model.encode_motion_batch(frames).data)
        (z * Tensor(rng.normal(size=z.shape))).sum().backward()
        body = default_spans().indices("body")
        rest = np.setdiff1d(np.arange(FRAME_WIDTH), body)
        assert np.all(x.grad[:, :, rest] == 0.0)
        assert np.all(np.abs(x.grad[:, :, body]).sum(axis=(0, 1)) > 0.0)

    def test_segment_latents_one_per_second(self, tiny_retrieval_pair, tiny_corpus):
        model = tiny_retrieval_pair["whole"]
        segs = segment_latents(model, tiny_corpus[0].motion)
        assert segs.shape == (4, 256)  # 4-second clips
        np.testing.assert_allclose(np.linalg.norm(segs, axis=1), 1.0, atol=1e-5)

    @pytest.mark.parametrize("seconds", [0.0, 0.01, -1.0])
    def test_segment_under_one_frame_rejected(self, tiny_retrieval_pair, tiny_corpus, seconds):
        sample = tiny_corpus[0]
        for item in (sample.motion, sample.track):
            with pytest.raises(ParameterError, match="less than one frame"):
                segment_latents(tiny_retrieval_pair["whole"], item, seconds=seconds)


class TestRetrieve:
    def test_singleton_gallery(self, tiny_retrieval_pair, tiny_corpus):
        model = tiny_retrieval_pair["whole"]
        order, sims = retrieve(model, tiny_corpus[0].track, [tiny_corpus[0].motion], k=1)
        assert list(order) == [0]
        assert recall_at_k(np.array([1]), 1) == 1.0
        assert median_rank(np.array([1])) == 1.0

    def test_planted_nearest_ranks_first(self, tiny_retrieval_pair, tiny_corpus):
        model = tiny_retrieval_pair["whole"]
        c = encode_music(model, tiny_corpus[0].track)
        rng = np.random.default_rng(4)
        noise = rng.normal(size=(5, 256))
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        gallery = [c.copy()] + [v for v in noise]
        order, _ = retrieve(model, tiny_corpus[0].track, gallery, k=3)
        assert order[0] == 0

    def test_k_too_large(self, tiny_retrieval_pair, tiny_corpus):
        with pytest.raises(ParameterError):
            retrieve(tiny_retrieval_pair["whole"], tiny_corpus[0].track,
                     [tiny_corpus[0].motion], k=2)

    def test_empty_gallery(self, tiny_retrieval_pair, tiny_corpus):
        with pytest.raises(ParameterError):
            retrieve(tiny_retrieval_pair["whole"], tiny_corpus[0].track, [], k=1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, tiny_retrieval_pair, tiny_corpus, k):
        gallery = [s.motion for s in tiny_corpus[:4]]
        with pytest.raises(ParameterError):
            retrieve(tiny_retrieval_pair["whole"], tiny_corpus[0].track, gallery, k=k)

    def test_latent_of_wrong_length(self, tiny_retrieval_pair, tiny_corpus):
        gallery = [tiny_corpus[0].motion, np.ones(255) / np.sqrt(255)]
        with pytest.raises(ShapeError, match="gallery item 1"):
            retrieve(tiny_retrieval_pair["whole"], tiny_corpus[0].track, gallery, k=1)

    def test_random_latents_hit_chance_rate(self):
        rng = np.random.default_rng(5)
        trials, gallery_size = 1000, 100
        hits = 0
        for _ in range(trials):
            gallery = rng.normal(size=(gallery_size, 8))
            gallery /= np.linalg.norm(gallery, axis=1, keepdims=True)
            query = rng.normal(size=8)
            query /= np.linalg.norm(query)
            true_idx = int(rng.integers(gallery_size))
            hits += rank_by_cosine(query, gallery)[0] == true_idx
        mean = hits / trials
        sigma = np.sqrt(0.01 * 0.99 / trials)
        assert abs(mean - 0.01) <= 3 * sigma


class TestMalformedInputs:
    """Clips too short for the two stride-2 convs raise TooShortError, and
    clips that cannot form one batch raise ShapeError, at every entry point."""

    @pytest.fixture(scope="class")
    def model(self):
        return DualEncoder(RetrievalConfig(hidden=16))

    @pytest.mark.parametrize("make", [
        lambda: RetrievalConfig(batch=0),
        lambda: dataclasses.replace(RetrievalConfig(variant="body"), batch=0),
        lambda: RunConfig.from_dict({"mmr_whole": {"batch": 0}}),
    ], ids=["constructor", "replace", "read_config"])
    def test_batch_below_one_rejected(self, make):
        with pytest.raises(ParameterError, match="RetrievalConfig.batch must be >= 1"):
            make()

    @pytest.mark.parametrize("frames", [0, 1, 3])
    def test_encode_motion_short_clip(self, model, frames):
        with pytest.raises(TooShortError, match=f"{frames} steps"):
            encode_motion(model, np.zeros((frames, FRAME_WIDTH)))
        assert encode_motion(model, np.zeros((4, FRAME_WIDTH))).shape == (256,)

    @pytest.mark.parametrize("rows", [0, 2, 3])
    def test_encode_music_short_track(self, model, rows):
        with pytest.raises(TooShortError, match=f"{rows} steps"):
            encode_music(model, np.zeros((rows, TRACK_FEATURE_DIM)))
        assert encode_music(model, np.zeros((4, TRACK_FEATURE_DIM))).shape == (256,)

    def test_retrieve_short_gallery_clip_or_query(self, model, tiny_corpus):
        sample = tiny_corpus[0]
        with pytest.raises(TooShortError):
            retrieve(model, sample.track, [sample.motion.data, np.zeros((3, FRAME_WIDTH))], k=1)
        with pytest.raises(TooShortError):
            retrieve(model, np.zeros((3, TRACK_FEATURE_DIM)), [sample.motion], k=1)

    def test_segment_latents_short_segments(self, model, tiny_corpus):
        sample = tiny_corpus[0]
        with pytest.raises(TooShortError, match="3 steps"):
            segment_latents(model, sample.motion, seconds=3 / sample.motion.fps)
        with pytest.raises(TooShortError, match="3 steps"):
            segment_latents(model, sample.track, seconds=3 / sample.track.feature_rate)

    def test_train_retrieval_short_clips(self):
        mot = [np.zeros((2, FRAME_WIDTH))] * 3
        feat = [np.zeros((2, TRACK_FEATURE_DIM))] * 3
        with pytest.raises(TooShortError, match="2 steps"):
            train_retrieval(mot, feat, RetrievalConfig(hidden=16, steps=1))

    def test_music_features_of_the_wrong_width(self, model, monkeypatch):
        with pytest.raises(ShapeError, match="34 wide"):
            encode_music(model, np.zeros((30, 34)))
        monkeypatch.setattr(retrieval, "DualEncoder", self._no_model)
        with pytest.raises(ShapeError, match="34 wide"):
            train_retrieval([np.zeros((30, FRAME_WIDTH))] * 2, [np.zeros((30, 34))] * 2,
                            RetrievalConfig(hidden=16, steps=1))

    @staticmethod
    def _no_model(config):
        raise AssertionError("training started before the inputs were checked")

    def test_train_retrieval_clips_of_two_lengths(self, monkeypatch):
        monkeypatch.setattr(retrieval, "DualEncoder", self._no_model)
        mot = [np.zeros((40, FRAME_WIDTH)), np.zeros((44, FRAME_WIDTH))]
        feat = [np.zeros((40, TRACK_FEATURE_DIM)), np.zeros((44, TRACK_FEATURE_DIM))]
        with pytest.raises(ShapeError, match="motion clips differ in length \\(40, 44\\)"):
            train_retrieval(mot, feat, RetrievalConfig(hidden=16, steps=1))
        with pytest.raises(ShapeError, match="feature clips differ in length \\(40, 44\\)"):
            train_retrieval([mot[0]] * 2, feat, RetrievalConfig(hidden=16, steps=1))


class TestTraining:
    def test_deterministic_checkpoint(self, tiny_corpus, tmp_path):
        from dancegen.retrieval import train_retrieval

        train = [s for s in tiny_corpus if s.split == "train"][:8]
        mot = [s.motion.data for s in train]
        feat = [s.track.features for s in train]
        cfg = RetrievalConfig(variant="body", hidden=16, steps=6, batch=4,
                              lr=1e-3, warmup_steps=2, seed=21)
        a = train_retrieval(mot, feat, cfg)
        b = train_retrieval(mot, feat, cfg)
        for (ka, va), (kb, vb) in zip(sorted(a.state().items()), sorted(b.state().items())):
            np.testing.assert_array_equal(va, vb, err_msg=ka)
        p1, p2 = tmp_path / "a.snc", tmp_path / "b.snc"
        save_retrieval(p1, a)
        save_retrieval(p2, b)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lambda_zero_removes_contrastive_gradient(self, tiny_corpus):
        # with lambda_nce = 0 the encoders' gradients come from recon alone:
        # perturbing the music encoder beyond the recon path has no effect on
        # the contrastive part; check via the training loss pieces directly
        from dancegen import nn
        from dancegen.retrieval import similarity_matrix

        train = [s for s in tiny_corpus if s.split == "train"][:4]
        cfg = RetrievalConfig(variant="body", hidden=16, seed=22, lambda_nce=0.0)
        model = DualEncoder(cfg)
        mot = np.stack([model.motion_slice(s.motion.data) for s in train])
        feat = np.stack([s.track.features for s in train])
        model.set_normalizers(mot.reshape(-1, mot.shape[-1]), feat.reshape(-1, 35))
        model.set_pool_centers(mot, feat)
        z = model.encode_motion_batch(mot)
        c = model.encode_music_batch(feat)
        rec = model.decoder(z, c, mot.shape[1] - mot.shape[1] % 4)
        target = (mot[:, :rec.shape[1]] - model.motion_mean) / model.motion_std
        loss = ((rec - nn.Tensor(target)) ** 2.0).mean() \
            + cfg.lambda_nce * info_nce(similarity_matrix(z, c, cfg.temperature))
        model.zero_grad()
        loss.backward()
        grads_a = {k: (p.grad.copy() if p.grad is not None else None)
                   for k, p in model.named_parameters()}
        model.zero_grad()
        # backward released the first graph, so the second pass needs a fresh forward
        rec = model.decoder(model.encode_motion_batch(mot), model.encode_music_batch(feat),
                            mot.shape[1] - mot.shape[1] % 4)
        rec_only = ((rec - nn.Tensor(target)) ** 2.0).mean()
        rec_only.backward()
        for k, p in model.named_parameters():
            ga = grads_a[k]
            gb = p.grad
            if ga is None and gb is None:
                continue
            np.testing.assert_allclose(ga, gb, atol=1e-12, err_msg=k)

    def test_checkpoint_roundtrip(self, tiny_retrieval_pair, tiny_corpus, tmp_path):
        model = tiny_retrieval_pair["whole"]
        path = tmp_path / "mmr.snc"
        save_retrieval(path, model)
        back = load_retrieval(path)
        z1 = encode_motion(model, tiny_corpus[0].motion)
        z2 = encode_motion(back, tiny_corpus[0].motion)
        np.testing.assert_array_equal(z1, z2)

    def test_unknown_checkpoint_key_is_a_parameter_error(self, tiny_retrieval_pair, tmp_path):
        from dancegen.io import save_checkpoint

        model = tiny_retrieval_pair["whole"]
        path = tmp_path / "mmr.snc"
        save_checkpoint(path, "retrieval", {**model.config.to_dict(), "bogus": 1}, 0,
                        model.state())
        with pytest.raises(ParameterError, match="retrieval.bogus"):
            load_retrieval(path)

    def test_retrieval_ranks_shape(self, tiny_retrieval_pair, tiny_corpus):
        model = tiny_retrieval_pair["whole"]
        test = [s for s in tiny_corpus if s.split == "test"]
        ranks = retrieval_ranks(model, [s.motion for s in test],
                                [s.track for s in test])
        assert ranks.shape == (len(test),)
        assert np.all(ranks >= 1) and np.all(ranks <= len(test))

    def test_retrieval_ranks_unequal_lists_rejected(self, tiny_retrieval_pair, tiny_corpus):
        model = tiny_retrieval_pair["whole"]
        motions = [s.motion for s in tiny_corpus[:2]]
        tracks = [s.track for s in tiny_corpus[:2]]
        for m, t in ((motions[:1], tracks), (motions, tracks[:1])):
            with pytest.raises(PairingError):
                retrieval_ranks(model, m, t)

    def test_missing_norm_array_named(self, tiny_retrieval_pair, tmp_path):
        from dancegen.io import load_checkpoint, save_checkpoint

        path = tmp_path / "mmr.snc"
        save_retrieval(path, tiny_retrieval_pair["whole"])
        kind, config, seed, arrays = load_checkpoint(path)
        del arrays["norm.music_pool_center"]
        save_checkpoint(path, kind, config, seed, arrays)
        with pytest.raises(ParameterError, match="norm.music_pool_center"):
            load_retrieval(path)


class TestTapeFree:
    def test_encoders_leave_no_grads_and_match_taped_run(self, tiny_retrieval_pair, tiny_corpus,
                                                        tmp_path, tape_probe):
        save_retrieval(tmp_path / "mmr.snc", tiny_retrieval_pair["whole"])
        model = load_retrieval(tmp_path / "mmr.snc")
        sample = tiny_corpus[0]
        with tape_probe() as counts:
            free = (encode_motion(model, sample.motion), encode_music(model, sample.track),
                    segment_latents(model, sample.motion))
        assert counts["taped"] == 0
        assert all(p.grad is None for p in model.parameters())
        fresh = load_retrieval(tmp_path / "mmr.snc")  # an empty memo, so the encoders run
        with tape_probe(force=True) as counts:
            taped = (encode_motion(fresh, sample.motion), encode_music(fresh, sample.track),
                     segment_latents(fresh, sample.motion))
        assert counts["taped"] > 0
        for a, b in zip(free, taped):
            np.testing.assert_array_equal(a, b)

    def test_pool_centers_match_taped_run(self, tiny_corpus, tape_probe):
        motions = np.stack([s.motion.data for s in tiny_corpus[:4]])
        feats = np.stack([s.track.features for s in tiny_corpus[:4]])
        free, taped = DualEncoder(RetrievalConfig(hidden=8)), DualEncoder(RetrievalConfig(hidden=8))
        with tape_probe() as counts:
            free.set_pool_centers(motions, feats)
        assert counts["taped"] == 0
        with tape_probe(force=True):
            taped.set_pool_centers(motions, feats)
        np.testing.assert_array_equal(free.motion_enc.pool_center, taped.motion_enc.pool_center)
        np.testing.assert_array_equal(free.music_enc.pool_center, taped.music_enc.pool_center)

    def test_batch_encoders_keep_the_tape(self, tiny_corpus):
        model = DualEncoder(RetrievalConfig(hidden=8))
        z = model.encode_motion_batch(tiny_corpus[0].motion.data[None])
        c = model.encode_music_batch(tiny_corpus[0].track.features[None])
        assert z.requires_grad and c.requires_grad
        (z * c).sum().backward()
        assert model.motion_enc.proj.weight.grad is not None
        assert model.music_enc.proj.weight.grad is not None


class TestLatentMemo:
    """encode_motion, encode_music, segment_latents and retrieve remember
    latents by model state and input content; encode_*_many are the
    uncached reference."""

    @staticmethod
    def _copy(model, tmp_path):
        save_retrieval(tmp_path / "copy.snc", model)
        return load_retrieval(tmp_path / "copy.snc")

    @staticmethod
    def _count_encodes(monkeypatch):
        from dancegen import retrieval

        calls = {"motion": 0, "music": 0}
        for side, fn in (("motion", retrieval.encode_motion_many),
                         ("music", retrieval.encode_music_many)):
            def counted(model, x, side=side, fn=fn):
                calls[side] += 1
                return fn(model, x)
            monkeypatch.setattr(retrieval, f"encode_{side}_many", counted)
        return calls

    @staticmethod
    def _long_clip(tiny_corpus):
        """Frames whose bytes span three memo-key pieces."""
        from dancegen import retrieval

        frames = np.concatenate([s.motion.data for s in tiny_corpus[:4]])
        assert 2 * retrieval._PIECE_BYTES < frames.nbytes <= 3 * retrieval._PIECE_BYTES
        return frames

    @staticmethod
    def _windows(frames, rate):
        return np.stack([frames[i * rate:(i + 1) * rate]
                         for i in range(frames.shape[0] // rate)])

    @pytest.mark.parametrize("variant", ["body", "whole"])
    def test_bitwise_equal_to_uncached(self, tiny_retrieval_pair, tiny_corpus, tmp_path,
                                       variant):
        model = self._copy(tiny_retrieval_pair[variant], tmp_path)
        motion, track = tiny_corpus[1].motion, tiny_corpus[1].track
        want = {
            "motion": encode_motion_many(model, motion.data[None])[0],
            "music": encode_music_many(model, track.features[None])[0],
            "motion_segments": encode_motion_many(model, self._windows(motion.data, motion.fps)),
            "music_segments": encode_music_many(
                model, self._windows(track.features, track.feature_rate)),
        }
        for _ in range(2):  # a miss, then a hit
            got = {
                "motion": encode_motion(model, motion),
                "music": encode_music(model, track),
                "motion_segments": segment_latents(model, motion),
                "music_segments": segment_latents(model, track),
            }
            for name in want:
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_repeats_hit(self, tiny_retrieval_pair, tiny_corpus, tmp_path, monkeypatch):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        calls = self._count_encodes(monkeypatch)
        gallery = [s.motion for s in tiny_corpus[:4]]
        first = retrieve(model, tiny_corpus[0].track, gallery, k=4)
        second = retrieve(model, tiny_corpus[0].track, gallery, k=4)
        assert calls == {"motion": 4, "music": 1}
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_in_place_clip_edit_re_encodes(self, tiny_retrieval_pair, tiny_corpus, tmp_path,
                                           monkeypatch):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        gallery = [MotionSequence(s.motion.data.copy()) for s in tiny_corpus[:4]]
        track = tiny_corpus[0].track
        _, before = retrieve(model, track, gallery, k=4)
        calls = self._count_encodes(monkeypatch)
        gallery[2].data[10:40] += 0.5
        order, sims = retrieve(model, track, gallery, k=4)
        assert calls["motion"] == 1
        fresh_order, fresh_sims = retrieve(self._copy(model, tmp_path), track, gallery, k=4)
        np.testing.assert_array_equal(order, fresh_order)
        np.testing.assert_array_equal(sims, fresh_sims)
        assert not np.array_equal(np.sort(sims), np.sort(before))

    def test_in_place_weight_edit_re_encodes(self, tiny_retrieval_pair, tiny_corpus, tmp_path):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        motion = tiny_corpus[0].motion
        before = encode_motion(model, motion)
        model.motion_enc.conv0.weight.data[0, 0, 0] += 0.5
        after = encode_motion(model, motion)
        np.testing.assert_array_equal(after, encode_motion_many(model, motion.data[None])[0])
        assert not np.array_equal(after, before)

    def test_weight_edit_in_a_later_piece_re_encodes(self, tiny_corpus):
        from dancegen import retrieval

        model = DualEncoder(RetrievalConfig(variant="whole", hidden=64))
        weight = model.motion_enc.conv0.weight.data
        assert weight.nbytes > retrieval._PIECE_BYTES
        motion = tiny_corpus[0].motion
        before = encode_motion(model, motion)
        weight.flat[-1] += 0.5
        after = encode_motion(model, motion)
        np.testing.assert_array_equal(after, encode_motion_many(model, motion.data[None])[0])
        assert not np.array_equal(after, before)

    def test_clip_over_several_pieces(self, tiny_retrieval_pair, tiny_corpus, tmp_path,
                                      monkeypatch):
        from dancegen import retrieval

        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        frames = self._long_clip(tiny_corpus)
        before = encode_motion_many(model, frames[None])[0]
        for _ in range(2):  # a miss, then a hit
            np.testing.assert_array_equal(encode_motion(model, frames), before)
        calls = self._count_encodes(monkeypatch)
        per_piece = retrieval._PIECE_BYTES // frames.itemsize
        for i in (3, per_piece + 5, frames.size - 1):  # first, middle and last piece
            frames.flat[i] += 0.25
            z = encode_motion(model, frames)
            np.testing.assert_array_equal(z, encode_motion_many(model, frames[None])[0])
            assert not np.array_equal(z, before)
            before = z
        assert calls["motion"] == 3

    def test_keys_and_latents_do_not_depend_on_the_pool(self, tiny_retrieval_pair, tiny_corpus,
                                                         tmp_path, monkeypatch):
        from dancegen import retrieval

        frames = self._long_clip(tiny_corpus)
        gallery = [frames] + [s.motion for s in tiny_corpus[:3]]
        seen = []
        for workers in (1, 2):
            model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(retrieval, "_hash_pool", pool)
                order, sims = retrieve(model, tiny_corpus[0].track, gallery, k=4)
                segs = segment_latents(model, MotionSequence(frames))
            seen.append((list(model._memo), list(model._memo.values()), order, sims, segs))
        (keys1, memo1, *out1), (keys2, memo2, *out2) = seen
        assert keys1 == keys2 and len(keys1) == 6
        for a, b in zip(memo1 + out1, memo2 + out2):
            np.testing.assert_array_equal(a, b)

    def test_retrieve_and_encode_motion_share_an_entry(self, tiny_retrieval_pair, tiny_corpus,
                                                       tmp_path, monkeypatch):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        gallery = [s.motion for s in tiny_corpus[:3]]
        retrieve(model, tiny_corpus[0].track, gallery, k=1)
        keys = set(model._memo)
        calls = self._count_encodes(monkeypatch)
        z = encode_motion(model, gallery[1])
        assert calls == {"motion": 0, "music": 0} and set(model._memo) == keys
        np.testing.assert_array_equal(z, encode_motion_many(model, gallery[1].data[None])[0])

    def test_forked_child_hashes(self, tiny_retrieval_pair, tiny_corpus, tmp_path):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        frames = self._long_clip(tiny_corpus)
        encode_motion(model, frames)  # the hashing pool's threads have started
        frames = frames[::-1].copy()
        want = encode_motion_many(model, frames[None])[0]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = int(not np.array_equal(encode_motion(model, frames), want))
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish encoding")
            time.sleep(0.05)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_load_state_re_encodes(self, tiny_retrieval_pair, tiny_corpus, tmp_path):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        other = DualEncoder(RetrievalConfig(variant="whole", hidden=24, seed=99))
        sample = tiny_corpus[0]
        before = (encode_motion(model, sample.motion), encode_music(model, sample.track))
        model.load_state(other.state())
        after = (encode_motion(model, sample.motion), encode_music(model, sample.track))
        np.testing.assert_array_equal(after[0], encode_motion_many(other, sample.motion.data[None])[0])
        np.testing.assert_array_equal(after[1], encode_music_many(other, sample.track.features[None])[0])
        for a, b in zip(after, before):
            assert not np.array_equal(a, b)

    def test_set_normalizers_re_encodes(self, tiny_retrieval_pair, tiny_corpus, tmp_path):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        sample = tiny_corpus[0]
        before = (encode_motion(model, sample.motion), encode_music(model, sample.track))
        model.set_normalizers(sample.motion.data, sample.track.features)
        after = (encode_motion(model, sample.motion), encode_music(model, sample.track))
        np.testing.assert_array_equal(after[0], encode_motion_many(model, sample.motion.data[None])[0])
        np.testing.assert_array_equal(after[1], encode_music_many(model, sample.track.features[None])[0])
        for a, b in zip(after, before):
            assert not np.array_equal(a, b)

    def test_writing_into_a_result_leaves_the_memo(self, tiny_retrieval_pair, tiny_corpus,
                                                   tmp_path):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        motion = tiny_corpus[0].motion
        want = encode_motion_many(model, motion.data[None])[0]
        want_segs = segment_latents(model, motion).copy()
        encode_motion(model, motion)[:] = 0.0
        segment_latents(model, motion)[:] = 0.0
        np.testing.assert_array_equal(encode_motion(model, motion), want)
        np.testing.assert_array_equal(segment_latents(model, motion), want_segs)

    def test_eviction_keeps_the_budget(self, tiny_retrieval_pair, tiny_corpus, tmp_path,
                                       monkeypatch):
        from dancegen import retrieval

        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        monkeypatch.setattr(retrieval, "_MEMO_BYTES", 3 * 256 * 8)
        motions = [s.motion for s in tiny_corpus[:5]]
        for m in motions:
            encode_motion(model, m)
        assert len(model._memo) == 3
        assert model._memo_nbytes == sum(z.nbytes for z in model._memo.values()) <= 3 * 256 * 8
        calls = self._count_encodes(monkeypatch)
        encode_motion(model, motions[-1])  # most recent: kept
        assert calls["motion"] == 0
        z = encode_motion(model, motions[0])  # oldest: evicted
        assert calls["motion"] == 1
        np.testing.assert_array_equal(z, encode_motion_many(model, motions[0].data[None])[0])

    def test_mixed_gallery_ranks_as_uncached(self, tiny_retrieval_pair, tiny_corpus, tmp_path):
        model = self._copy(tiny_retrieval_pair["whole"], tmp_path)
        motions = [s.motion for s in tiny_corpus[:6]]
        latents = np.stack([encode_motion_many(model, m.data[None])[0] for m in motions])
        gallery = [motions[0], motions[1].data, latents[2], motions[3], latents[4],
                   motions[5].data]
        track = tiny_corpus[3].track
        c = encode_music_many(model, track.features[None])[0]
        want = rank_by_cosine(c, latents)[:4]
        for _ in range(2):
            order, sims = retrieve(model, track, gallery, k=4)
            np.testing.assert_array_equal(order, want)
            np.testing.assert_array_equal(sims, latents[want] @ c)
