"""Closed-form oracles and property checks for the evaluation suite."""

import dataclasses

import numpy as np
import pytest

from dancegen import metrics
from dancegen.errors import ComparabilityError, ParameterError, ShapeError, TooShortError
from dancegen.metrics import (
    BeatSet,
    ExtractorConfig,
    FeatureSet,
    beat_alignment_score,
    classify_expression,
    diversity,
    emotion_alignment_score,
    fid,
    frechet_distance,
    fve,
    kinematic_beats,
    mmr_matching_score,
    motion_features,
    mpjpe,
    multimodality,
    train_extractor,
)
from dancegen.motion import FRAME_WIDTH, JV, MotionSequence
from dancegen.pipeline import RunConfig
from dancegen.synth import EMOTION_CENTROIDS


class TestMatchingScore:
    def test_coincident_inputs_zero(self):
        z = np.random.default_rng(0).normal(size=256)
        segs = np.random.default_rng(1).normal(size=(4, 256))
        assert mmr_matching_score(z, z.copy(), segs, segs.copy()) == 0.0

    def test_hand_computed_static_case(self):
        z = np.array([1.0, 0.0])
        m = np.array([0.0, 0.0])
        v = mmr_matching_score(z, m)  # T = 1, dynamics sum empty
        assert v == pytest.approx(np.sqrt(0.7), abs=1e-5)
        assert v == pytest.approx(0.83666, abs=1e-5)

    def test_hand_computed_dynamics_case(self):
        z = np.zeros(2)
        zs = np.array([[0.0, 0.0], [1.0, 0.0]])  # dz = (1, 0)
        ms = np.array([[0.0, 0.0], [0.0, 0.0]])  # dm = (0, 0)
        v = mmr_matching_score(z, z.copy(), zs, ms)
        assert v == pytest.approx(np.sqrt(0.3), abs=1e-5)
        assert v == pytest.approx(0.54772, abs=1e-5)

    def test_single_segment_means_no_dynamics_term(self):
        z = np.array([1.0, 0.0])
        m = np.array([0.0, 1.0])
        one = mmr_matching_score(z, m, np.ones((1, 2)), np.zeros((1, 2)))
        assert one == pytest.approx(np.sqrt(0.7 * 2.0), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        z, m = rng.normal(size=256), rng.normal(size=256)
        zs, ms = rng.normal(size=(5, 256)), rng.normal(size=(5, 256))
        q, _ = np.linalg.qr(rng.normal(size=(256, 256)))
        a = mmr_matching_score(z, m, zs, ms)
        b = mmr_matching_score(z @ q, m @ q, zs @ q, ms @ q)
        assert a == pytest.approx(b, abs=1e-9)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            mmr_matching_score(np.zeros(4), np.zeros(5))


class TestEmotionAlignment:
    def test_exact_centroids_score_one(self):
        clips = [np.tile(EMOTION_CENTROIDS[e], (5, 1)) for e in range(7)]
        assert emotion_alignment_score(clips, list(range(7)), EMOTION_CENTROIDS) == 1.0

    def test_permuted_labels_score_zero(self):
        clips = [np.tile(EMOTION_CENTROIDS[e], (5, 1)) for e in range(7)]
        labels = [(e + 1) % 7 for e in range(7)]
        assert emotion_alignment_score(clips, labels, EMOTION_CENTROIDS) == 0.0

    def test_mixture_prefers_heavier_component(self):
        mix = 0.6 * EMOTION_CENTROIDS[2] + 0.4 * EMOTION_CENTROIDS[5]
        assert classify_expression(mix[None, :], EMOTION_CENTROIDS) == 2

    def test_matches_bruteforce_confusion_trace(self):
        rng = np.random.default_rng(3)
        clips, labels = [], []
        for _ in range(40):
            e = int(rng.integers(7))
            clips.append(EMOTION_CENTROIDS[e] + 0.2 * rng.normal(size=(6, 100)))
            labels.append(e)
        eas = emotion_alignment_score(clips, labels, EMOTION_CENTROIDS)
        confusion = np.zeros((7, 7))
        for clip, lab in zip(clips, labels):
            dists = [np.linalg.norm(clip.mean(axis=0) - c) for c in EMOTION_CENTROIDS]
            confusion[lab, int(np.argmin(dists))] += 1
        assert eas == pytest.approx(np.trace(confusion) / confusion.sum(), abs=1e-12)

    def test_empty_clip_rejected(self):
        with pytest.raises(ParameterError):
            classify_expression(np.zeros((0, 100)), EMOTION_CENTROIDS)


def _motion_with_speed_profile(speed_profile):
    """Build a sequence whose mean joint speed matches the given profile."""
    n = len(speed_profile)
    data = np.zeros((n, FRAME_WIDTH))
    jv = np.zeros((n, 52, 3))
    jv[:, :, 0] = np.asarray(speed_profile)[:, None]
    data[:, JV] = jv.reshape(n, -1)
    return MotionSequence(data)


class TestBeatAlignment:
    def test_perfect_coincidence(self):
        profile = np.ones(61)
        profile[[15, 30, 45]] = 0.0
        motion = _motion_with_speed_profile(profile)
        beats = BeatSet(np.array([15, 30, 45]) / 30.0)
        assert beat_alignment_score(beats, motion) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_distance_kernel_value(self):
        profile = np.ones(61)
        profile[30] = 0.0  # kinematic beat at 1.0 s
        motion = _motion_with_speed_profile(profile)
        beats = BeatSet(np.array([1.0 + 0.1]))
        v = beat_alignment_score(beats, motion, sigma=0.1)
        assert v == pytest.approx(np.exp(-0.5), abs=1e-9)
        assert v == pytest.approx(0.6065, abs=1e-4)

    def test_no_kinematic_beats_scores_zero(self):
        motion = _motion_with_speed_profile(np.ones(40))
        assert beat_alignment_score(BeatSet(np.array([0.5])), motion) == 0.0

    def test_joint_shift_invariance(self):
        rng = np.random.default_rng(4)
        profile = 1.0 + rng.uniform(0, 1, 90)
        profile[[20, 40, 60]] = 0.1
        motion = _motion_with_speed_profile(profile)
        beats = BeatSet(np.array([20, 40, 60]) / 30.0 + 0.013)
        a = beat_alignment_score(beats, motion)
        shift = 10  # frames
        motion2 = _motion_with_speed_profile(np.concatenate([profile[-shift:], profile[:-shift]]))
        # rolled profile moves the minima by shift frames; shift beats equally
        beats2 = BeatSet(beats.times + shift / 30.0)
        b = beat_alignment_score(beats2, motion2)
        assert a == pytest.approx(b, abs=1e-9)

    def test_empty_beats_rejected(self):
        with pytest.raises(ParameterError):
            beat_alignment_score(BeatSet(np.array([])), _motion_with_speed_profile(np.ones(10)))

    def test_in_unit_interval(self, tiny_corpus):
        for s in tiny_corpus[:5]:
            v = beat_alignment_score(BeatSet(s.track.beat_times), s.motion)
            assert 0.0 < v <= 1.0


class TestFrechet:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(200, 6))
        fs = FeatureSet(x, "t")
        assert fid(fs, FeatureSet(x.copy(), "t")) == pytest.approx(0.0, abs=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        a = FeatureSet(rng.normal(size=(300, 5)), "t")
        b = FeatureSet(rng.normal(size=(300, 5)) + 0.5, "t")
        assert fid(a, b) == pytest.approx(fid(b, a), abs=1e-8)

    def test_unit_mean_shift_closed_form(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10000, 4))
        b = rng.normal(size=(10000, 4))
        b[:, 0] += 1.0
        v = fid(FeatureSet(a, "t"), FeatureSet(b, "t"))
        assert v == pytest.approx(1.0, abs=0.1)

    def test_population_covariance_case(self):
        # mu equal, cov1 = 4I, cov2 = I in 2 dims: trace(5I - 2*2I) = 2
        v = frechet_distance(np.zeros(2), 4 * np.eye(2), np.zeros(2), np.eye(2))
        assert v == pytest.approx(2.0, abs=1e-12)

    def test_nonnegative_within_tolerance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.normal(size=(50, 3))
            y = rng.normal(size=(50, 3))
            assert fid(FeatureSet(x, "t"), FeatureSet(y, "t")) >= -1e-6

    def test_extractor_mismatch(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ComparabilityError):
            fid(FeatureSet(rng.normal(size=(10, 3)), "a"),
                FeatureSet(rng.normal(size=(10, 3)), "b"))


class TestDispersion:
    def test_identical_features_zero(self):
        fs = FeatureSet(np.ones((10, 4)), "t")
        assert diversity(fs, pairs=5, seed=0) == 0.0

    def test_single_pair_distance(self):
        fs = FeatureSet(np.array([[0.0, 0.0], [0.0, 3.0]]), "t")
        assert diversity(fs, pairs=1, seed=0) == pytest.approx(3.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(40, 6))
        a = diversity(FeatureSet(x, "t"), pairs=20, seed=3)
        b = diversity(FeatureSet(2 * x, "t"), pairs=20, seed=3)
        assert b == pytest.approx(2 * a, rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ParameterError):
            diversity(FeatureSet(np.ones((1, 4)), "t"), pairs=1)
        with pytest.raises(ParameterError):
            diversity(FeatureSet(np.ones((10, 4)), "t"), pairs=6)

    def test_multimodality_identical_zero(self):
        sets = [np.ones((4, 3)) for _ in range(5)]
        assert multimodality(sets, seed=0) == 0.0

    def test_multimodality_averages_tracks(self):
        a = np.array([[0.0, 0.0], [3.0, 0.0]])
        b = np.array([[0.0, 0.0], [5.0, 0.0]])
        assert multimodality([a, b], seed=0) == pytest.approx(4.0)


class TestReconErrors:
    def test_mpjpe_zero_and_uniform(self):
        rng = np.random.default_rng(11)
        gt = rng.normal(size=(6, 52, 3))
        assert mpjpe(gt, gt.copy()) == 0.0
        rec = gt + np.array([0.003, 0.004, 0.0])  # 5 mm offset everywhere
        assert mpjpe(gt, rec) == pytest.approx(5.0, abs=1e-9)

    def test_mpjpe_single_term(self):
        gt = np.zeros((1, 1, 3))
        rec = np.array([[[0.01, 0.0, 0.0]]])
        assert mpjpe(gt, rec) == pytest.approx(10.0)

    def test_mpjpe_subsets(self):
        gt = np.zeros((2, 52, 3))
        rec = np.zeros((2, 52, 3))
        rec[:, 30, 0] = 0.1  # a hand joint
        assert mpjpe(gt, rec, "body") == 0.0
        assert mpjpe(gt, rec, "hands") == pytest.approx(100.0 / 30)
        with pytest.raises(ParameterError):
            mpjpe(gt, rec, "arms")

    def test_fve_345(self):
        gt = np.zeros((1, 1, 3))
        rec = np.array([[[3.0, 4.0, 0.0]]])
        assert fve(gt, rec) == 5.0

    def test_fve_mean_of_frame_norms(self):
        gt = np.zeros((2, 2, 3))
        rec = np.zeros((2, 2, 3))
        rec[0, 0, 0] = 2.0
        rec[1, 0, 0] = 4.0
        assert fve(gt, rec) == pytest.approx(3.0)

    def test_fve_identical_zero(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 9, 3))
        assert fve(x, x.copy()) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.normal(size=(3, 10, 3))
            b = rng.normal(size=(3, 10, 3))
            c = rng.normal(size=(3, 10, 3))
            assert mpjpe(a, b) <= mpjpe(a, c) + mpjpe(c, b) + 1e-9
            assert fve(a, b) <= fve(a, c) + fve(c, b) + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mpjpe(np.zeros((2, 52, 3)), np.zeros((3, 52, 3)))
        with pytest.raises(ShapeError):
            fve(np.zeros((2, 5, 3)), np.zeros((2, 6, 3)))


class TestFeatureExtractor:
    @pytest.fixture(scope="class")
    def extractor(self, tiny_train_frames):
        cfg = ExtractorConfig(channels="whole", feature_dim=32, hidden=16,
                              steps=40, batch=8, seed=5)
        return train_extractor(list(tiny_train_frames), cfg)

    def test_feature_shape_and_determinism(self, extractor, tiny_corpus):
        fs = motion_features(extractor, [tiny_corpus[0].motion])
        fs2 = motion_features(extractor, [tiny_corpus[0].motion])
        assert fs.vectors.shape == (1, 32)
        np.testing.assert_array_equal(fs.vectors, fs2.vectors)

    def test_untrained_rejected(self, tiny_corpus):
        from dancegen.errors import MissingCheckpointError
        from dancegen.metrics import MotionFeatureExtractor

        fresh = MotionFeatureExtractor(ExtractorConfig())
        with pytest.raises(MissingCheckpointError):
            motion_features(fresh, [tiny_corpus[0].motion])

    def test_genres_separate_in_feature_space(self, extractor, tiny_corpus):
        twos = [s for s in tiny_corpus if s.track.genre_id in (0, 1)]
        feats = motion_features(extractor, [s.motion for s in twos]).vectors
        labels = np.array([s.track.genre_id for s in twos])
        tr, ev = [], []
        for g in (0, 1):  # stratified halves
            gi = np.flatnonzero(labels == g)
            tr.extend(gi[::2])
            ev.extend(gi[1::2])
        tr, ev = np.array(tr), np.array(ev)
        cents = {g: feats[tr][labels[tr] == g].mean(axis=0) for g in (0, 1)}
        pred = [min((0, 1), key=lambda g: np.linalg.norm(f - cents[g])) for f in feats[ev]]
        assert np.mean(np.array(pred) == labels[ev]) > 0.5

    def test_hand_extractor_distinct_id(self, tiny_train_frames):
        cfg = ExtractorConfig(channels="hand", feature_dim=32, hidden=16,
                              steps=5, batch=8, seed=6)
        hand = train_extractor(list(tiny_train_frames), cfg)
        assert "hand" in hand.extractor_id

    def test_features_match_taped_run(self, extractor, tiny_corpus, tape_probe):
        seqs = [s.motion for s in tiny_corpus[:3]]
        with tape_probe() as counts:
            free = motion_features(extractor, seqs).vectors
        assert counts["taped"] == 0
        with tape_probe(force=True) as counts:
            taped = motion_features(extractor, seqs).vectors
        assert counts["taped"] > 0
        np.testing.assert_array_equal(free, taped)

    def test_checkpoint_roundtrip(self, extractor, tiny_corpus, tmp_path):
        from dancegen.metrics import load_extractor, save_extractor

        path = tmp_path / "ex.snc"
        save_extractor(path, extractor)
        back = load_extractor(path)
        a = motion_features(extractor, [tiny_corpus[1].motion]).vectors
        b = motion_features(back, [tiny_corpus[1].motion]).vectors
        np.testing.assert_array_equal(a, b)

    def test_unknown_checkpoint_key_is_a_parameter_error(self, extractor, tmp_path):
        from dancegen.io import save_checkpoint
        from dancegen.metrics import load_extractor

        path = tmp_path / "ex.snc"
        save_checkpoint(path, "extractor", {**extractor.config.to_dict(), "bogus": 1}, 0,
                        extractor.state())
        with pytest.raises(ParameterError, match="extractor.bogus"):
            load_extractor(path)

    @pytest.mark.parametrize("make", [
        lambda: ExtractorConfig(batch=0),
        lambda: dataclasses.replace(ExtractorConfig(), batch=0),
        lambda: RunConfig.from_dict({"extractor": {"batch": 0}}),
    ], ids=["constructor", "replace", "read_config"])
    def test_batch_below_one_rejected(self, make):
        with pytest.raises(ParameterError, match="ExtractorConfig.batch must be >= 1"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: ExtractorConfig(channels="wole"),
        lambda: dataclasses.replace(ExtractorConfig(), channels="wole"),
        lambda: RunConfig.from_dict({"extractor": {"channels": "wole"}}),
    ], ids=["constructor", "replace", "read_config"])
    def test_unknown_channels_rejected(self, make):
        with pytest.raises(ParameterError, match="ExtractorConfig.channels.*'wole'"):
            make()

    def test_checkpoint_with_unknown_channels_rejected(self, extractor, tmp_path):
        from dancegen.io import save_checkpoint
        from dancegen.metrics import load_extractor

        path = tmp_path / "ex.snc"
        save_checkpoint(path, "extractor", {**extractor.config.to_dict(), "channels": "wole"}, 0,
                        extractor.state())
        with pytest.raises(ParameterError, match="ExtractorConfig.channels.*'wole'"):
            load_extractor(path)

    def test_empty_training_set(self):
        with pytest.raises(ParameterError, match="empty training set"):
            train_extractor([], ExtractorConfig(steps=1))

    def test_clips_of_two_lengths(self, monkeypatch):
        def no_model(config):
            raise AssertionError("training started before the inputs were checked")

        monkeypatch.setattr(metrics, "MotionFeatureExtractor", no_model)
        clips = [np.zeros((40, FRAME_WIDTH)), np.zeros((44, FRAME_WIDTH))]
        with pytest.raises(ShapeError, match="differ in length \\(40, 44\\)"):
            train_extractor(clips, ExtractorConfig(steps=1))

    def test_training_clips_of_another_width(self, monkeypatch):
        def no_model(config):
            raise AssertionError("training started before the inputs were checked")

        monkeypatch.setattr(metrics, "MotionFeatureExtractor", no_model)
        clips = [np.zeros((40, 500))] * 3
        with pytest.raises(ShapeError, match=f"500 wide.*takes {FRAME_WIDTH}"):
            train_extractor(clips, ExtractorConfig(steps=1))

    def test_feature_clips_of_another_width(self, extractor, monkeypatch):
        def no_encode(frames):
            raise AssertionError("a clip was encoded before the inputs were checked")

        monkeypatch.setattr(extractor, "encode_batch", no_encode)
        clips = [np.zeros((40, FRAME_WIDTH)), np.zeros((40, 500))]
        with pytest.raises(ShapeError, match=f"500 wide.*takes {FRAME_WIDTH}"):
            motion_features(extractor, clips)

    def test_short_clips(self, extractor):
        with pytest.raises(TooShortError, match="3 frames"):
            train_extractor([np.zeros((3, FRAME_WIDTH))] * 2, ExtractorConfig(hidden=8, steps=1))
        with pytest.raises(TooShortError, match="3 frames"):
            motion_features(extractor, [np.zeros((3, FRAME_WIDTH))])
        assert motion_features(extractor, [np.zeros((4, FRAME_WIDTH))]).vectors.shape == (1, 32)

    def test_nan_frames_raise_training_failure(self, tiny_train_frames):
        from dancegen.errors import TrainingFailureError

        frames = tiny_train_frames[:4].copy()
        frames[0, 5, 7] = np.nan
        cfg = ExtractorConfig(hidden=8, steps=3, batch=4, seed=1)
        with pytest.raises(TrainingFailureError) as err:
            train_extractor(list(frames), cfg)
        assert err.value.step == 0


class TestKinematicBeats:
    def test_extracts_planted_minima(self):
        profile = np.ones(61)
        profile[[15, 30, 45]] = 0.0
        motion = _motion_with_speed_profile(profile)
        times = kinematic_beats(motion)
        np.testing.assert_allclose(times, np.array([15, 30, 45]) / 30.0)

    def test_requires_below_median(self):
        profile = np.ones(40)
        profile[10] = 0.99  # a dip that stays above the median? it's below
        profile[20] = 1.01
        motion = _motion_with_speed_profile(profile)
        times = kinematic_beats(motion)
        assert 20 / 30.0 not in times
