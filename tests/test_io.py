"""Round trips for the motion/track/checkpoint/manifest file formats."""

import numpy as np
import pytest

from dancegen import io as dio
from dancegen.errors import MalformedSequenceError, ParameterError, ShapeError
from dancegen.motion import FRAME_WIDTH, BlendshapeRig, MotionSequence, default_skeleton
from dancegen.synth import generate_track


class TestMotionFile:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = MotionSequence(rng.normal(size=(12, FRAME_WIDTH)).astype(np.float32), fps=30)
        path = tmp_path / "clip.sdm1"
        dio.write_motion(path, seq)
        back = dio.read_motion(path)
        assert back.fps == 30
        np.testing.assert_array_equal(back.data, seq.data.astype(np.float32).astype(np.float64))

    def test_header(self, tmp_path):
        seq = MotionSequence(np.zeros((8, FRAME_WIDTH)), fps=60)
        path = tmp_path / "clip.sdm1"
        dio.write_motion(path, seq)
        raw = path.read_bytes()
        assert raw[:4] == b"SDM1"
        fps, frames, channels = np.frombuffer(raw[4:16], dtype="<u4")
        assert (fps, frames, channels) == (60, 8, 723)
        assert len(raw) == 16 + 4 * 8 * 723

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.sdm1"
        path.write_bytes(b"NOPE" + b"\0" * 32)
        with pytest.raises(MalformedSequenceError):
            dio.read_motion(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "clip.sdm1"
        dio.write_motion(path, MotionSequence(np.zeros((8, FRAME_WIDTH)), fps=30))
        raw = path.read_bytes()
        for cut in (10, 16, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(MalformedSequenceError, match="truncated"):
                dio.read_motion(path)


class TestTrackFile:
    def test_roundtrip(self, tmp_path):
        track = generate_track(seed=5, duration_s=6.0, bpm=132.0, genre_id=3, emotion_id=2)
        path = tmp_path / "t.smt1"
        dio.write_track(path, track)
        back = dio.read_track(path)
        np.testing.assert_array_equal(back.features,
                                      track.features.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.beat_times, track.beat_times)
        assert back.genre_id == 3 and back.emotion_id == 2
        assert back.duration == 6.0 and back.feature_rate == track.feature_rate

    def test_header_magic_and_channels(self, tmp_path):
        track = generate_track(seed=1)
        path = tmp_path / "t.smt1"
        dio.write_track(path, track)
        raw = path.read_bytes()
        assert raw[:4] == b"SMT1"
        rate, rows, channels = np.frombuffer(raw[4:16], dtype="<u4")
        assert channels == 35 and rows == track.rows

    def test_truncated_file(self, tmp_path):
        track = generate_track(seed=1)
        path = tmp_path / "t.smt1"
        dio.write_track(path, track)
        raw = path.read_bytes()
        # inside the header, the features, the beat count, the beats and the trailer
        feats_end = 16 + 4 * track.features.size
        for cut in (10, 100, feats_end + 2, feats_end + 6, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(MalformedSequenceError, match="truncated"):
                dio.read_track(path)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = {"a.weight": rng.normal(size=(3, 4)), "b": np.arange(5, dtype=np.int64)}
        path = tmp_path / "m.snc"
        dio.save_checkpoint(path, "demo", {"x": 1, "y": [2, 3]}, 42, arrays)
        kind, config, seed, back = dio.load_checkpoint(path)
        assert kind == "demo" and seed == 42 and config == {"x": 1, "y": [2, 3]}
        for k in arrays:
            np.testing.assert_array_equal(back[k], arrays[k])
            assert back[k].dtype == arrays[k].dtype

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"w": np.ones((2, 2))}
        p1, p2 = tmp_path / "a.snc", tmp_path / "b.snc"
        dio.save_checkpoint(p1, "demo", {"k": 1}, 0, arrays)
        dio.save_checkpoint(p2, "demo", {"k": 1}, 0, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_raises_shape_error(self, tmp_path):
        arrays = {"a": np.arange(12.0).reshape(3, 4), "b": np.arange(5, dtype=np.int64)}
        path = tmp_path / "m.snc"
        dio.save_checkpoint(path, "demo", {"k": 1}, 0, arrays)
        raw = path.read_bytes()
        header_end = 16 + int(np.frombuffer(raw[8:16], dtype="<u8")[0])
        # inside the magic, the fixed header, the JSON header and the payload
        for cut in (2, 10, 16, header_end - 1, header_end + 40, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ShapeError):
                dio.load_checkpoint(path)

    def test_inconsistent_directory_raises_shape_error(self, tmp_path):
        path = tmp_path / "m.snc"
        dio.save_checkpoint(path, "demo", {}, 0, {"a": np.zeros(4)})
        raw = path.read_bytes()
        bad = raw.replace(b'"shape": [4]', b'"shape": [5]')
        path.write_bytes(bad)
        with pytest.raises(ShapeError, match="shape"):
            dio.load_checkpoint(path)


class _FailingFile:
    """A file whose first write stores half its bytes and then raises, as a
    crash mid-write would."""

    def __init__(self, f):
        self.f = f

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        self.f.flush()
        raise OSError("disk gone")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def _writers():
    seq = MotionSequence(np.ones((8, FRAME_WIDTH)), fps=30)
    track = generate_track(seed=2, duration_s=4.0)
    return {
        "motion": lambda p: dio.write_motion(p, seq),
        "track": lambda p: dio.write_track(p, track),
        "checkpoint": lambda p: dio.save_checkpoint(p, "demo", {}, 0, {"w": np.ones(3)}),
        "manifest": lambda p: dio.write_manifest(p, {"kind": "x", "rows": [1, 2]}),
    }


class TestCrashSafeWrites:
    @pytest.mark.parametrize("kind", ["motion", "track", "checkpoint", "manifest"])
    def test_interrupted_write_keeps_old_file(self, tmp_path, monkeypatch, kind):
        write = _writers()[kind]
        path = tmp_path / "artifact"
        real_open = open
        monkeypatch.setattr(dio, "open", lambda *a, **k: _FailingFile(real_open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="disk gone"):
            write(path)
        assert not path.exists()
        path.write_bytes(b"old contents")
        with pytest.raises(OSError, match="disk gone"):
            write(path)
        assert path.read_bytes() == b"old contents"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

    @pytest.mark.parametrize("kind", ["motion", "track", "checkpoint", "manifest"])
    def test_complete_write_replaces_old_file(self, tmp_path, kind):
        write = _writers()[kind]
        path = tmp_path / "artifact"
        path.write_bytes(b"old contents")
        write(path)
        fresh = tmp_path / "fresh"
        write(fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "fresh"]


class TestTextFormats:
    def test_skeleton_roundtrip(self, tmp_path):
        skel = default_skeleton()
        path = tmp_path / "skeleton.json"
        dio.write_skeleton(path, skel)
        back = dio.read_skeleton(path)
        np.testing.assert_array_equal(back.parent_index, skel.parent_index)
        np.testing.assert_allclose(back.rest_offset, skel.rest_offset)

    def test_rig_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        rig = BlendshapeRig(rng.normal(size=(4, 3)), rng.normal(size=(52, 4, 3)),
                            rng.normal(size=(52, 103)))
        path = tmp_path / "rig.json"
        dio.write_rig(path, rig)
        back = dio.read_rig(path)
        np.testing.assert_allclose(back.base_vertices, rig.base_vertices)
        np.testing.assert_allclose(back.deltas, rig.deltas)
        np.testing.assert_allclose(back.transform, rig.transform)


class TestCorpusFiles:
    def test_save_load_corpus(self, tmp_path, tiny_corpus):
        manifest = dio.save_corpus(tiny_corpus[:6], tmp_path / "corpus", {"n": 6})
        samples, doc = dio.load_corpus(manifest)
        assert len(samples) == 6
        assert doc["config"] == {"n": 6}
        for orig, back in zip(tiny_corpus[:6], samples):
            assert back.sample_id == orig.sample_id
            assert back.split == orig.split
            assert back.track.genre_id == orig.track.genre_id
            np.testing.assert_array_equal(
                back.motion.data, orig.motion.data.astype(np.float32).astype(np.float64))

    def test_non_json_manifest_is_a_parameter_error(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("motion/a.sdm1\n")
        for read in (dio.read_manifest, dio.load_corpus):
            with pytest.raises(ParameterError, match="not a JSON manifest") as err:
                read(path)
            assert str(path) in str(err.value)
        path.write_text("[1, 2]")
        with pytest.raises(ParameterError, match="JSON object"):
            dio.read_manifest(path)

    def test_generated_manifest_is_not_a_corpus(self, tmp_path):
        path = tmp_path / "manifest.json"
        dio.write_manifest(path, {"kind": "generated", "rows": []})
        with pytest.raises(ParameterError, match="not a corpus manifest") as err:
            dio.load_corpus(path)
        assert str(path) in str(err.value)


KINDS = ("tokenizer", "retrieval", "generator", "extractor")


class TestModelCheckpoints:
    """A checkpoint holds a model's `state()`: its parameters plus the buffers
    it declares, children included."""

    @pytest.fixture(scope="class")
    def models(self, tiny_tokenizer, tiny_retrieval_pair, tiny_generator, tiny_train_frames):
        from dancegen import generator as gen, metrics as met, retrieval as ret, tokenizer as tok

        extractor = met.train_extractor(list(tiny_train_frames[:8]),
                                        met.ExtractorConfig(channels="hand", hidden=8, steps=3,
                                                            batch=4))
        return {
            "tokenizer": (tok.save_tokenizer, tok.load_tokenizer, tiny_tokenizer),
            "retrieval": (ret.save_retrieval, ret.load_retrieval, tiny_retrieval_pair["body"]),
            "generator": (gen.save_generator, gen.load_generator, tiny_generator),
            "extractor": (met.save_extractor, met.load_extractor, extractor),
        }

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_then_save_is_byte_identical(self, models, kind, tmp_path):
        save, load, model = models[kind]
        save(tmp_path / "a.snc", model)
        save(tmp_path / "b.snc", load(tmp_path / "a.snc"))
        assert (tmp_path / "a.snc").read_bytes() == (tmp_path / "b.snc").read_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_fresh_model_loads_the_state_bitwise(self, models, kind):
        from dancegen.retrieval import DualEncoder

        model = models[kind][2]
        fresh = type(model)(model.config)
        if kind == "generator":
            fresh.cond_encoder = DualEncoder(model.cond_encoder.config)
        state = model.state()
        fresh.load_state(state)
        back = fresh.state()
        assert sorted(back) == sorted(state)
        for name, arr in state.items():
            assert back[name].dtype == arr.dtype, name
            np.testing.assert_array_equal(back[name], arr, err_msg=name)

    def test_generator_state_is_its_parameters_and_the_condition_encoder(self, models):
        from dancegen.generator import MaskedGenerator

        model = models["generator"][2]
        own = {name for name, _ in MaskedGenerator(model.config).named_parameters()}
        cond = {"cond_encoder." + name for name in model.cond_encoder.state()}
        assert own.isdisjoint(cond)
        assert set(model.state()) == own | cond
