"""Config round trips, seed fan-out, stage orchestration, CLI surface."""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dancegen.cli import main as cli_main
from dancegen.errors import DependencyError
from dancegen.io import sha256_file
from dancegen.pipeline import (
    COLUMNS,
    MetricParams,
    RunConfig,
    apply_overrides,
    run_pipeline,
    stage_magm,
    verify_provenance,
)
from dancegen.synth import CorpusConfig
from dancegen.tokenizer import TokenizerConfig
from dancegen.retrieval import RetrievalConfig
from dancegen.generator import GeneratorConfig
from dancegen.metrics import ExtractorConfig


def micro_config(out_dir: str, seed: int = 5) -> RunConfig:
    cfg = RunConfig(seed=seed, out_dir=out_dir)
    cfg.corpus = CorpusConfig(n_samples=20, duration_s=4.0, genres=(0, 1),
                              bpm_range=(100, 140))
    cfg.hrvq = TokenizerConfig(codebook_size=64, code_dim=32, layers=2, hidden=16,
                               steps=12, batch=4, crop_frames=32, lr=1e-3,
                               warmup_steps=3, refit_every=6, anchor_seqs=8)
    cfg.mmr_body = RetrievalConfig(variant="body", hidden=16, steps=10, batch=6,
                                   lr=1e-3, warmup_steps=3, crop_frames=64)
    cfg.mmr_whole = RetrievalConfig(variant="whole", hidden=16, steps=10, batch=6,
                                    lr=1e-3, warmup_steps=3, crop_frames=64)
    cfg.magm = GeneratorConfig(codebook_size=64, code_dim=32, layers_v=2, width=16,
                               depth=1, res_depth=1, heads=2, steps=8, batch=4,
                               lr=1e-3, warmup_steps=2)
    cfg.extractor = ExtractorConfig(hidden=12, steps=10, batch=6)
    cfg.generation.iterations = 3
    cfg.metrics = MetricParams(diversity_pairs=1, mm_generations=2)
    return cfg


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = micro_config("x")
        path = tmp_path / "c.json"
        from dancegen.pipeline import load_config, save_config

        save_config(path, cfg)
        back = load_config(path)
        assert back.to_dict() == cfg.to_dict()

    def test_malformed_json_rejected(self, tmp_path):
        from dancegen.errors import ParameterError
        from dancegen.pipeline import load_config

        path = tmp_path / "config.json"
        path.write_text('{"seed": 5, "cor')
        with pytest.raises(ParameterError, match="not a JSON config"):
            load_config(path)

    def test_overrides(self):
        cfg = micro_config("x")
        out = apply_overrides(cfg, ["hrvq.layers=4", "metrics.bas_sigma=0.2",
                                    "corpus.genres=[0,1,2]"])
        assert out.hrvq.layers == 4
        assert out.metrics.bas_sigma == 0.2
        assert out.corpus.genres == (0, 1, 2)

    def test_unknown_override_rejected(self):
        from dancegen.errors import ParameterError

        with pytest.raises(ParameterError):
            apply_overrides(micro_config("x"), ["hrvq.nope=1"])

    @pytest.mark.parametrize("section", ["corpus", "hrvq", "mmr_body", "mmr_whole", "magm",
                                         "extractor", "generation", "metrics"])
    def test_unknown_key_names_section_and_key(self, section):
        from dancegen.errors import ParameterError

        with pytest.raises(ParameterError, match=f"{section}.codebok_size"):
            RunConfig.from_dict({section: {"codebok_size": 3}})

    def test_unknown_section_rejected(self):
        from dancegen.errors import ParameterError

        with pytest.raises(ParameterError, match="hrvg"):
            RunConfig.from_dict({"hrvg": {"layers": 2}})

    # a section that is not an object, or a value whose type does not fit
    # its field, and the section or key each error must name
    MALFORMED = [({"hrvq": 5}, "'hrvq'"), ([{"seed": 1}], "'run'"),
                 ({"generation": {"iterations": "3"}}, "generation.iterations='3'"),
                 ({"hrvq": {"layers": "abc"}}, "hrvq.layers='abc'"),
                 ({"hrvq": {"layers": True}}, "hrvq.layers=True"),
                 ({"hrvq": {"layers": 2.0}}, "hrvq.layers=2.0"),
                 ({"hrvq": {"lr": "fast"}}, "hrvq.lr='fast'"),
                 ({"corpus": {"genres": 3}}, "corpus.genres=3")]

    @pytest.mark.parametrize("doc, name", MALFORMED)
    def test_malformed_section_or_value_names_it(self, doc, name, tmp_path):
        from dancegen.errors import ParameterError
        from dancegen.pipeline import load_config

        with pytest.raises(ParameterError, match=re.escape(name)):
            RunConfig.from_dict(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParameterError, match=re.escape(name)):
            load_config(path)

    def test_section_override_rejected(self):
        from dancegen.errors import ParameterError

        with pytest.raises(ParameterError, match="'hrvq' must be a JSON object"):
            apply_overrides(micro_config("x"), ["hrvq=3"])

    def test_numbers_of_any_kind_fit_number_fields(self):
        cfg = RunConfig.from_dict({"hrvq": {"lr": 1, "layers": np.int64(3),
                                            "dropout_q": np.float32(0.5)},
                                   "corpus": {"bpm_range": [90, 130]}})
        assert (cfg.hrvq.lr, cfg.hrvq.layers, cfg.hrvq.dropout_q) == (1, 3, 0.5)
        assert cfg.corpus.bpm_range == (90, 130)

    def test_partial_sections_keep_defaults(self):
        cfg = RunConfig.from_dict({"corpus": {"n_samples": 7}, "magm": {"depth": 3}})
        assert cfg.corpus == CorpusConfig(n_samples=7)
        assert cfg.magm == GeneratorConfig(depth=3)
        assert cfg.mmr_body == RetrievalConfig(variant="body")

    def test_seed_fanout_documented_and_stable(self):
        cfg = micro_config("x", seed=9).resolved()
        again = micro_config("x", seed=9).resolved()
        assert cfg.hrvq.seed == again.hrvq.seed
        seeds = {cfg.corpus.seed, cfg.hrvq.seed, cfg.mmr_body.seed,
                 cfg.mmr_whole.seed, cfg.magm.seed, cfg.extractor.seed,
                 cfg.generation.seed}
        assert len(seeds) == 7  # distinct stage streams

    # each removed field at the constant the code now runs; a JSON list
    # stands where the field held a tuple
    RETIRED_ECHOES = [("hrvq", "ema_decay", 0.99),
                      ("mmr_body", "filter_warmup_frac", 0.5),
                      ("mmr_whole", "filter_warmup_frac", 0.5),
                      ("magm", "cond_drop", 0.1), ("magm", "gumbel_start", 1.0),
                      ("magm", "gumbel_end", 0.1), ("magm", "max_tokens", 256),
                      ("generation", "temperature_start", 1.0),
                      ("generation", "temperature_end", 0.0),
                      ("corpus", "emotions", [0, 1, 2, 3, 4, 5, 6])]

    @pytest.mark.parametrize("section, key, value", RETIRED_ECHOES)
    def test_retired_key_at_its_constant_loads(self, section, key, value):
        assert RunConfig.from_dict({section: {key: value}}) == RunConfig()

    @pytest.mark.parametrize("section, key, value", RETIRED_ECHOES)
    def test_retired_key_at_another_value_rejected(self, section, key, value):
        from dancegen.errors import ParameterError

        other = value[:3] if isinstance(value, list) else value + 0.25
        with pytest.raises(ParameterError, match=f"{section}.{key}"):
            RunConfig.from_dict({section: {key: other}})

    @pytest.mark.parametrize("override", ["hrvq.layers=abc", "hrvq.lr=fast",
                                          "magm.depth=2.5", "corpus.genres=[0,"])
    def test_bad_override_value_names_key_and_value(self, override):
        from dancegen.errors import ParameterError

        key, raw = override.split("=", 1)
        with pytest.raises(ParameterError, match=f"{re.escape(key)}={re.escape(repr(raw))}"):
            apply_overrides(micro_config("x"), [override])

    def test_paper_constants_are_defaults(self):
        cfg = RunConfig()
        assert cfg.hrvq.codebook_size == 512
        assert cfg.hrvq.layers == 5
        assert cfg.hrvq.dropout_q == 0.2
        assert cfg.magm.lambda_body == 0.5
        assert cfg.magm.lambda_whole == 0.5
        assert cfg.mmr_whole.latent_dim == 256
        assert cfg.mmr_whole.temperature == 0.1
        assert cfg.mmr_whole.lambda_nce == 0.1
        assert cfg.mmr_whole.negative_threshold == 0.8
        assert cfg.mmr_whole.batch == 128
        assert cfg.generation.cfg_scale_base == 4.0
        assert cfg.generation.cfg_scale_residual == 5.0
        assert cfg.generation.iterations == 10
        assert cfg.metrics.mms_mu == 0.7
        assert cfg.metrics.mms_lambda == 0.3
        assert cfg.metrics.bas_sigma == 0.1
        assert cfg.metrics.mm_generations == 10


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    root_dir = tmp_path_factory.mktemp("run")
    cfg = micro_config(str(root_dir / "a"))
    report = run_pipeline(cfg)
    return cfg, report


class TestPipeline:
    def test_report_has_all_columns(self, micro_run):
        _, report = micro_run
        text = report.read_text()
        for col in COLUMNS:
            assert col in text
        csv_lines = report.with_suffix(".csv").read_text().strip().splitlines()
        assert csv_lines[0] == ",".join(COLUMNS)
        values = csv_lines[1].split(",")
        assert len(values) == len(COLUMNS)
        for v in values:
            float(v)  # parseable

    def test_report_embeds_config_and_seed(self, micro_run):
        cfg, report = micro_run
        text = report.read_text()
        assert f"seed: {cfg.seed}" in text
        assert "config:" in text
        embedded = json.loads(text.split("config: ", 1)[1].strip())
        assert embedded["seed"] == cfg.seed

    def test_artifacts_resumable(self, micro_run):
        cfg, report = micro_run
        before = report.read_text()
        report.unlink()
        report2 = run_pipeline(cfg)  # only evaluate reruns, everything cached
        assert report2.read_text() == before

    def test_changed_config_refuses_to_resume(self, micro_run):
        import dataclasses

        from dancegen.errors import ParameterError

        cfg, report = micro_run
        root = report.parent
        before = _files(root)
        drifted = dataclasses.replace(cfg, metrics=dataclasses.replace(cfg.metrics, bas_sigma=0.5))
        with pytest.raises(ParameterError, match=r"metrics\.bas_sigma"):
            run_pipeline(drifted)
        assert _files(root) == before

    def test_provenance_verifies_and_detects_tamper(self, micro_run):
        cfg, report = micro_run
        from dancegen.pipeline import artifact_root

        root = artifact_root(cfg.resolved())
        assert verify_provenance(root) == []
        victim = root / "report.csv"
        original = victim.read_bytes()
        victim.write_bytes(original + b"x")
        problems = verify_provenance(root)
        assert any("report.csv" in p for p in problems)
        victim.write_bytes(original)

    def test_missing_prerequisite_names_stage(self, tmp_path):
        cfg = micro_config(str(tmp_path / "nope"))
        nope = tmp_path / "nope"
        with pytest.raises(DependencyError) as err:
            stage_magm(cfg.resolved(), nope / "corpus" / "manifest.json", nope / "hrvq.snc",
                       nope / "mmr_body.snc", nope / "mmr_whole.snc", nope / "magm.snc")
        assert err.value.stage == "train-magm"

    def test_checkpoints_embed_config_echo(self, micro_run):
        cfg, _ = micro_run
        from dancegen.io import load_checkpoint
        from dancegen.pipeline import artifact_root

        root = artifact_root(cfg.resolved())
        kind, config, seed, _ = load_checkpoint(root / "hrvq.snc")
        assert kind == "tokenizer"
        assert config["codebook_size"] == cfg.hrvq.codebook_size


class TestDeterministicReports:
    def test_rerun_bitwise_identical(self, tmp_path):
        cfg_a = micro_config(str(tmp_path / "r1"), seed=3)
        cfg_b = micro_config(str(tmp_path / "r2"), seed=3)
        rep_a = run_pipeline(cfg_a)
        rep_b = run_pipeline(cfg_b)
        assert rep_a.read_bytes() == rep_b.read_bytes()
        assert rep_a.with_suffix(".csv").read_bytes() == rep_b.with_suffix(".csv").read_bytes()


class TestCli:
    def test_gen_corpus_and_tokenize_roundtrip(self, tmp_path, micro_run):
        cfg, _ = micro_run
        from dancegen.pipeline import artifact_root

        root = artifact_root(cfg.resolved())
        sample = json.loads((root / "corpus" / "manifest.json").read_text())["samples"][0]
        motion_path = root / "corpus" / sample["motion"]
        tokens = tmp_path / "clip.tokens"
        out_motion = tmp_path / "rec.sdm1"
        assert cli_main(["tokenize", "--ckpt", str(root / "hrvq.snc"),
                         "--in", str(motion_path), "--out", str(tokens)]) == 0
        assert cli_main(["detokenize", "--ckpt", str(root / "hrvq.snc"),
                         "--in", str(tokens), "--out", str(out_motion)]) == 0
        from dancegen.io import read_motion

        rec = read_motion(out_motion)
        orig = read_motion(motion_path)
        assert rec.data.shape == orig.data.shape

    def test_detokenize_names_a_missing_field(self, tmp_path, micro_run, capsys):
        from dancegen.io import save_checkpoint

        _, report = micro_run
        root = report.parent
        tokens = tmp_path / "bad.tokens"
        save_checkpoint(tokens, "tokens", {"fps": 30}, 0,
                        {"indices": np.zeros((3, 3, 4), dtype=np.int64)})
        assert cli_main(["detokenize", "--ckpt", str(root / "hrvq.snc"),
                         "--in", str(tokens), "--out", str(tmp_path / "d.sdm1")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "n_frames" in lines[0]

    def test_bad_set_value_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert cli_main(["gen-corpus", "--out-dir", str(out), "--set", "hrvq.layers=abc"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "hrvq.layers='abc'" in lines[0]
        assert not out.exists()

    def test_bad_corpus_range_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert cli_main(["gen-corpus", "--out-dir", str(out), "--set", "corpus.bpm_range=[1]"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "CorpusConfig.bpm_range" in lines[0]
        assert not out.exists()

    def test_section_set_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli_main(["run-pipeline", "--out-dir", str(out), "--set", "hrvq=3"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:") and "'hrvq'" in lines[0]
        assert not out.exists()

    def test_generate_cli_with_csv_export(self, tmp_path, micro_run):
        cfg, _ = micro_run
        from dancegen.pipeline import artifact_root

        root = artifact_root(cfg.resolved())
        manifest = json.loads((root / "corpus" / "manifest.json").read_text())
        track_rel = manifest["samples"][0]["track"]
        out = tmp_path / "gen.sdm1"
        csv_out = tmp_path / "traj.csv"
        code = cli_main(["generate", "--magm-ckpt", str(root / "magm.snc"),
                         "--hrvq-ckpt", str(root / "hrvq.snc"),
                         "--track", str(root / "corpus" / track_rel),
                         "--seed", "4", "--iterations", "3",
                         "--out", str(out), "--export-csv", str(csv_out)])
        assert code == 0
        assert out.exists()
        header = csv_out.read_text().splitlines()[0]
        assert header == "frame,joint,x,y,z"

    def test_retrieve_cli(self, capsys, micro_run):
        cfg, _ = micro_run
        from dancegen.pipeline import artifact_root

        root = artifact_root(cfg.resolved())
        manifest = json.loads((root / "corpus" / "manifest.json").read_text())
        track_rel = manifest["samples"][0]["track"]
        code = cli_main(["retrieve", "--mmr-ckpt", str(root / "mmr_whole.snc"),
                         "--query", str(root / "corpus" / track_rel),
                         "--gallery", str(root / "corpus" / "manifest.json"),
                         "--k", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize("flag", ["--cfg-scale-base", "--cfg-scale-residual"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_generate_cli_rejects_a_non_finite_cfg_scale(self, flag, value, tmp_path, capsys,
                                                         micro_run):
        _, report = micro_run
        root = report.parent
        track_rel = json.loads((root / "corpus" / "manifest.json").read_text())["samples"][0]["track"]
        out = tmp_path / "g.sdm1"
        code = cli_main(["generate", "--magm-ckpt", str(root / "magm.snc"),
                         "--hrvq-ckpt", str(root / "hrvq.snc"),
                         "--track", str(root / "corpus" / track_rel), "--out", str(out),
                         flag, value])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        field = flag[2:].replace("-", "_")
        assert lines[0].startswith("error:") and f"GenerationConfig.{field}" in lines[0]
        assert not out.exists()

    def test_retrieve_cli_rejects_k_below_one(self, capsys, micro_run):
        _, report = micro_run
        root = report.parent
        track_rel = json.loads((root / "corpus" / "manifest.json").read_text())["samples"][0]["track"]
        code = cli_main(["retrieve", "--mmr-ckpt", str(root / "mmr_whole.snc"),
                         "--query", str(root / "corpus" / track_rel),
                         "--gallery", str(root / "corpus" / "manifest.json"), "--k", "0"])
        assert code != 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("gallery", ["notes.txt", "generated/manifest.json"])
    def test_retrieve_cli_rejects_a_gallery_that_is_not_a_corpus(self, capsys, micro_run,
                                                                 tmp_path, gallery):
        _, report = micro_run
        root = report.parent
        (tmp_path / "notes.txt").write_text("motion/a.sdm1\n")
        path = (tmp_path if gallery == "notes.txt" else root) / gallery
        track_rel = json.loads((root / "corpus" / "manifest.json").read_text())["samples"][0]["track"]
        code = cli_main(["retrieve", "--mmr-ckpt", str(root / "mmr_whole.snc"),
                         "--query", str(root / "corpus" / track_rel), "--gallery", str(path)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and str(path) in lines[0]

    def test_verify_cli(self, micro_run, capsys):
        cfg, _ = micro_run
        from dancegen.pipeline import artifact_root

        root = artifact_root(cfg.resolved())
        assert cli_main(["verify", "--root", str(root)]) == 0

    @pytest.mark.parametrize("argv, code, stage", [
        (["train-hrvq", "--corpus", "{missing}", "--out", "{tmp}/h.snc"], 2, "train-hrvq"),
        (["train-mmr", "--variant", "whole", "--corpus", "{missing}", "--out", "{tmp}/m.snc"],
         2, "train-mmr-whole"),
        (["train-magm", "--corpus", "{root}/corpus/manifest.json", "--hrvq-ckpt", "{missing}",
          "--mmr-body-ckpt", "{root}/mmr_body.snc", "--mmr-whole-ckpt", "{root}/mmr_whole.snc",
          "--out", "{tmp}/g.snc"], 2, "train-magm"),
        (["evaluate", "--gt", "{root}/corpus/manifest.json", "--gen", "{missing}",
          "--mmr-whole-ckpt", "{root}/mmr_whole.snc", "--report", "{tmp}/r.txt"], 2, "evaluate"),
        (["tokenize", "--ckpt", "{missing}", "--in", "{motion}", "--out", "{tmp}/t"], 1, None),
        (["detokenize", "--ckpt", "{root}/hrvq.snc", "--in", "{missing}", "--out", "{tmp}/d"],
         1, None),
        (["generate", "--magm-ckpt", "{root}/magm.snc", "--hrvq-ckpt", "{root}/hrvq.snc",
          "--track", "{missing}", "--out", "{tmp}/g.sdm1"], 1, None),
        (["retrieve", "--mmr-ckpt", "{missing}", "--query", "{track}",
          "--gallery", "{root}/corpus/manifest.json"], 1, None),
    ])
    def test_missing_input_is_one_error_line(self, argv, code, stage, tmp_path, micro_run,
                                             capsys):
        _, report = micro_run
        root = report.parent
        sample = json.loads((root / "corpus" / "manifest.json").read_text())["samples"][0]
        missing = tmp_path / "absent"
        argv = [a.format(root=root, tmp=tmp_path, missing=missing,
                         motion=root / "corpus" / sample["motion"],
                         track=root / "corpus" / sample["track"]) for a in argv]
        assert cli_main(argv) == code
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error in stage {stage}:" if stage else "error:")
        assert str(missing) in lines[0]

    def test_console_entrypoint(self):
        out = subprocess.run([sys.executable, "-m", "dancegen.cli", "--help"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        for sub in ("gen-corpus", "train-hrvq", "train-mmr", "train-magm", "tokenize",
                    "detokenize", "generate", "retrieve", "evaluate", "verify",
                    "run-pipeline"):
            assert sub in out.stdout


def _files(root):
    return {str(p.relative_to(root)): sha256_file(p) for p in sorted(root.rglob("*")) if p.is_file()}


class TestCliStages:
    """The stage subcommands, run on a pipeline's own inputs, rebuild its artifacts."""

    def test_gen_corpus_matches_run(self, tmp_path, micro_run):
        _, report = micro_run
        root = report.parent
        assert cli_main(["gen-corpus", "--config", str(root / "config.json"),
                         "--out-dir", str(tmp_path / "corpus")]) == 0
        assert _files(tmp_path / "corpus") == _files(root / "corpus")

    @pytest.mark.parametrize("argv, artifact", [
        (["train-mmr", "--variant", "body"], "mmr_body.snc"),
        (["train-mmr", "--variant", "whole"], "mmr_whole.snc"),
        (["train-hrvq"], "hrvq.snc"),
        (["train-magm", "--hrvq-ckpt", "{root}/hrvq.snc", "--mmr-body-ckpt",
          "{root}/mmr_body.snc", "--mmr-whole-ckpt", "{root}/mmr_whole.snc"], "magm.snc"),
    ])
    def test_training_command_matches_run(self, argv, artifact, tmp_path, micro_run):
        _, report = micro_run
        root = report.parent
        out = tmp_path / artifact
        argv = [a.format(root=root) for a in argv]
        assert cli_main(argv + ["--config", str(root / "config.json"),
                                "--corpus", str(root / "corpus" / "manifest.json"),
                                "--out", str(out)]) == 0
        assert out.read_bytes() == (root / artifact).read_bytes()


class TestCliEvaluate:
    """`dancegen evaluate` scores exactly the files and config it is given."""

    @staticmethod
    def _evaluate(root, report, data=None, mmr=None, extra=()):
        data = data or root
        return cli_main(["evaluate", "--config", str(root / "config.json"),
                         "--gt", str(data / "corpus" / "manifest.json"),
                         "--gen", str(data / "generated" / "manifest.json"),
                         "--mmr-whole-ckpt", str(mmr or root / "mmr_whole.snc"),
                         "--report", str(report), *extra])

    def test_inputs_outside_a_run_root_stay_untouched(self, tmp_path, micro_run):
        _, run_report = micro_run
        root = run_report.parent
        data = tmp_path / "data"
        shutil.copytree(root / "corpus", data / "corpus")
        shutil.copytree(root / "generated", data / "generated")
        before = _files(data)
        report = tmp_path / "out" / "report.txt"
        report.parent.mkdir()
        assert self._evaluate(root, report, data=data) == 0
        assert _files(data) == before
        assert report.read_bytes() == run_report.read_bytes()
        assert sorted(p.name for p in report.parent.iterdir()) == [
            "extractor_hand.snc", "extractor_whole.snc", "report.csv", "report.txt"]

    def test_missing_checkpoint_fails(self, tmp_path, micro_run, capsys):
        _, run_report = micro_run
        report = tmp_path / "report.txt"
        assert self._evaluate(run_report.parent, report, mmr=tmp_path / "absent.snc") == 2
        assert "absent.snc" in capsys.readouterr().err
        assert not report.exists()

    def test_corpus_manifest_as_generated_is_one_error_line(self, tmp_path, micro_run, capsys):
        _, run_report = micro_run
        root = run_report.parent
        report = tmp_path / "report.txt"
        gen = root / "corpus" / "manifest.json"
        assert cli_main(["evaluate", "--config", str(root / "config.json"), "--gt", str(gen),
                         "--gen", str(gen), "--mmr-whole-ckpt", str(root / "mmr_whole.snc"),
                         "--report", str(report)]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "not a generated manifest" in lines[0] and str(gen) in lines[0]
        assert not report.exists()

    def test_unknown_generated_id_is_one_error_line(self, tmp_path, micro_run, capsys):
        _, run_report = micro_run
        root = run_report.parent
        data = tmp_path / "data"
        shutil.copytree(root / "corpus", data / "corpus")
        shutil.copytree(root / "generated", data / "generated")
        manifest = data / "generated" / "manifest.json"
        gen = json.loads(manifest.read_text())
        gen["rows"][0]["id"] = "no-such-clip"
        manifest.write_text(json.dumps(gen))
        out = tmp_path / "out"
        out.mkdir()
        assert self._evaluate(root, out / "report.txt", data=data) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "no-such-clip" in lines[0]
        assert list(out.iterdir()) == []

    def test_override_reaches_report(self, tmp_path, micro_run):
        _, run_report = micro_run
        root = run_report.parent
        reports = {}
        for sigma in ("0.1", "0.5"):
            report = tmp_path / sigma / "report.txt"
            report.parent.mkdir()
            assert self._evaluate(root, report, extra=["--set", f"metrics.bas_sigma={sigma}"]) == 0
            header, values = report.with_suffix(".csv").read_text().splitlines()
            reports[sigma] = dict(zip(header.split(","), values.split(",")))
        assert reports["0.1"]["BAS"] != reports["0.5"]["BAS"]
        assert reports["0.1"]["FID"] == reports["0.5"]["FID"]
