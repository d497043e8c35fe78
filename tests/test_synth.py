"""Synthetic corpus: beat grids, planted kinematic beats, emotion placement,
split arithmetic, determinism."""

import numpy as np
import pytest

from dancegen.errors import ParameterError
from dancegen.metrics import BeatSet, beat_alignment_score, classify_expression
from dancegen.motion import FACE, JV, validate_sequence
from dancegen.synth import (
    CorpusConfig,
    EMOTION_CENTROIDS,
    generate_dance,
    generate_track,
    make_corpus,
    split_of,
)


class TestGenerateTrack:
    def test_beat_grid_120bpm(self):
        track = generate_track(seed=0, duration_s=4.0, bpm=120.0)
        assert track.beat_times.size == 8
        np.testing.assert_allclose(track.beat_times, np.arange(8) * 0.5, atol=0.011)

    def test_determinism(self):
        a = generate_track(seed=9, duration_s=5.0, bpm=100.0, genre_id=4, emotion_id=3)
        b = generate_track(seed=9, duration_s=5.0, bpm=100.0, genre_id=4, emotion_id=3)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.beat_times, b.beat_times)

    def test_seed_changes_features(self):
        a = generate_track(seed=1, duration_s=4.0, bpm=120.0)
        b = generate_track(seed=2, duration_s=4.0, bpm=120.0)
        frac_diff = np.mean(a.features != b.features)
        assert frac_diff >= 0.01

    def test_feature_shape_and_finiteness(self):
        track = generate_track(seed=3, duration_s=6.0, bpm=90.0)
        assert track.features.shape == (180, 35)
        assert np.all(np.isfinite(track.features))
        assert np.all(track.beat_times >= 0) and np.all(track.beat_times < 6.0)
        assert np.all(np.diff(track.beat_times) > 0)

    @pytest.mark.parametrize("kwargs", [
        {"bpm": 50.0}, {"bpm": 200.0}, {"duration_s": 2.0}, {"duration_s": 31.0},
        {"genre_id": 15}, {"emotion_id": 7},
    ])
    def test_parameter_errors(self, kwargs):
        with pytest.raises(ParameterError):
            generate_track(seed=0, **{**{"duration_s": 4.0, "bpm": 120.0}, **kwargs})


class TestGenerateDance:
    def test_kinematic_beats_planted(self):
        track = generate_track(seed=4, duration_s=5.0, bpm=120.0, genre_id=2)
        dance = generate_dance(track, seed=10)
        jv = dance.data[:, JV].reshape(dance.frames, 52, 3)
        speed = np.linalg.norm(jv, axis=2).mean(axis=1)
        for beat in track.beat_times[1:-1]:
            k = int(round(beat * dance.fps))
            window = speed[max(k - 2, 1):k + 3]
            inner = speed[max(k - 4, 1):k + 5]
            assert window.min() == inner.min()  # local minimum within +-2 frames

    def test_emotion_placement(self):
        for emotion in (0, 3, 6):
            track = generate_track(seed=5, duration_s=4.0, bpm=110.0, emotion_id=emotion)
            dance = generate_dance(track, seed=11)
            face = dance.data[:, FACE]
            per_frame = [classify_expression(face[k:k + 1], EMOTION_CENTROIDS)
                         for k in range(dance.frames)]
            assert np.mean(np.array(per_frame) == emotion) >= 0.95

    def test_determinism(self):
        track = generate_track(seed=6, duration_s=4.0, bpm=120.0)
        a = generate_dance(track, seed=12)
        b = generate_dance(track, seed=12)
        np.testing.assert_array_equal(a.data, b.data)

    def test_frame_invariants(self):
        track = generate_track(seed=7, duration_s=4.0, bpm=140.0, genre_id=9)
        dance = generate_dance(track, seed=13)
        validate_sequence(dance, strict=True)  # contacts binary, rotations det +1

    def test_planted_alignment_beats_shifted_track(self, tiny_corpus):
        wins = 0
        for s in tiny_corpus:
            beats = BeatSet(s.track.beat_times)
            shifted = BeatSet(s.track.beat_times + 0.25)
            good = beat_alignment_score(beats, s.motion)
            bad = beat_alignment_score(shifted, s.motion)
            wins += good > bad
        assert wins / len(tiny_corpus) >= 0.95


class TestMakeCorpus:
    def test_split_sizes_512(self):
        cfg = CorpusConfig(n_samples=512, seed=1, duration_s=4.0)
        # only the split arithmetic matters here; reuse draw logic on a stub
        # by generating a real corpus at this size would be slow, so check
        # the allocation helper directly through a smaller corpus and ratios
        from dancegen.synth import _largest_remainder

        counts = np.full(15, 512 / 15)
        test_alloc = _largest_remainder(counts * (51 / 512), 51)
        assert test_alloc.sum() == 51
        assert np.all(test_alloc >= 3)

    def test_split_sizes_small(self, tiny_corpus):
        n = len(tiny_corpus)
        n_test = len(split_of(tiny_corpus, "test"))
        n_val = len(split_of(tiny_corpus, "val"))
        n_train = len(split_of(tiny_corpus, "train"))
        assert n_train + n_val + n_test == n
        assert abs(n_test - round(0.1 * n)) <= 1
        assert abs(n_val - round(0.1 * n)) <= 1

    def test_exact_ratio_10(self):
        cfg = CorpusConfig(n_samples=10, seed=2, duration_s=4.0, genres=(0,))
        samples = make_corpus(cfg)
        assert len(split_of(samples, "train")) == 8
        assert len(split_of(samples, "val")) == 1
        assert len(split_of(samples, "test")) == 1

    def test_stratified_by_genre(self, tiny_corpus):
        genres = {s.track.genre_id for s in tiny_corpus}
        for split in ("train", "val", "test"):
            covered = {s.track.genre_id for s in split_of(tiny_corpus, split)}
            assert covered == genres

    def test_deterministic_membership(self):
        cfg = CorpusConfig(n_samples=12, seed=3, duration_s=4.0, genres=(0, 1))
        a = make_corpus(cfg)
        b = make_corpus(cfg)
        assert [s.split for s in a] == [s.split for s in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.motion.data, y.motion.data)
            np.testing.assert_array_equal(x.track.features, y.track.features)

    def test_too_small_rejected(self):
        with pytest.raises(ParameterError):
            make_corpus(CorpusConfig(n_samples=9))

    def test_fps_reaches_the_tracks(self):
        for s in make_corpus(CorpusConfig(n_samples=10, duration_s=4.0, fps=20)):
            assert s.track.feature_rate == s.motion.fps == 20
            assert s.track.features.shape[0] == s.motion.frames == 80

    def test_durations_pair_up(self, tiny_corpus):
        for s in tiny_corpus:
            assert abs(s.motion.duration - s.track.duration) <= 1.0 / s.motion.fps


class TestCorpusConfig:
    # values that ended in a bare error from make_corpus, that generate_track
    # refuses, or (True) that passed as genre 1
    BAD = [("genres", []), ("genres", ["a"]), ("genres", [1.5]), ("genres", [15]),
           ("genres", [True]), ("bpm_range", [1]), ("bpm_range", ["x", "y"]),
           ("bpm_range", [50, 100]), ("bpm_range", [140, 100]), ("bpm_range", [100, 200])]

    @pytest.mark.parametrize("key, value", BAD)
    def test_bad_tuple_field_names_it(self, key, value):
        from dancegen.pipeline import RunConfig

        with pytest.raises(ParameterError, match=f"CorpusConfig.{key}"):
            RunConfig.from_dict({"corpus": {key: value}})
        with pytest.raises(ParameterError, match=f"CorpusConfig.{key}"):
            CorpusConfig(**{key: tuple(value)})

    def test_edges_of_the_ranges_accepted(self):
        cfg = CorpusConfig(genres=(0, 14), bpm_range=(60, 180.0))
        assert (cfg.genres, cfg.bpm_range) == ((0, 14), (60, 180.0))
        assert CorpusConfig(bpm_range=(120, 120)).bpm_range == (120, 120)
