"""Command-line interface: every pipeline stage plus file-level utilities.

Config files are JSON mirroring RunConfig; any leaf is overridable with
repeated `--set section.key=value` flags.  The artifact root directory can be
moved with the DANCEGEN_HOME environment variable.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import io as dio
from .errors import DanceGenError, DependencyError
from .generator import GenerationConfig, generate, load_generator
from .motion import recover_global_positions
from .pipeline import (
    RunConfig,
    apply_overrides,
    load_config,
    run_pipeline,
    stage_corpus,
    stage_evaluate,
    stage_hrvq,
    stage_magm,
    stage_mmr,
    verify_provenance,
)
from .retrieval import load_retrieval, retrieve
from .tokenizer import TokenGrid, decode, encode, load_tokenizer


def _config_from_args(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig.desk_profile()
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "out_dir", None):
        cfg.out_dir = args.out_dir
    return apply_overrides(cfg, args.set or [])


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config (defaults to the desk profile)")
    p.add_argument("--seed", type=int, default=None, help="root seed override")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config leaf, e.g. --set hrvq.layers=3")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dancegen",
                                     description="music-conditioned dance generation at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate the synthetic paired corpus")
    _add_config_flags(p)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("train-hrvq", help="train the motion tokenizer")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True, help="corpus manifest.json")
    p.add_argument("--out", required=True, help="checkpoint path")

    p = sub.add_parser("train-mmr", help="train a retrieval model")
    _add_config_flags(p)
    p.add_argument("--variant", choices=("body", "whole"), required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-magm", help="train the masked generator")
    _add_config_flags(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--hrvq-ckpt", required=True)
    p.add_argument("--mmr-body-ckpt", required=True)
    p.add_argument("--mmr-whole-ckpt", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("tokenize", help="motion file -> token file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("detokenize", help="token file -> motion file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    gen_defaults = GenerationConfig()
    p = sub.add_parser("generate", help="generate a dance for a track")
    p.add_argument("--magm-ckpt", required=True)
    p.add_argument("--hrvq-ckpt", required=True)
    p.add_argument("--track", required=True, help="SMT1 track file")
    p.add_argument("--seed", type=int, default=gen_defaults.seed)
    p.add_argument("--iterations", type=int, default=gen_defaults.iterations)
    p.add_argument("--cfg-scale-base", type=float, default=gen_defaults.cfg_scale_base)
    p.add_argument("--cfg-scale-residual", type=float, default=gen_defaults.cfg_scale_residual)
    p.add_argument("--out", required=True, help="SDM1 output")
    p.add_argument("--export-csv", help="also write per-joint world trajectories")

    p = sub.add_parser("retrieve", help="rank gallery motions for a music query")
    p.add_argument("--mmr-ckpt", required=True)
    p.add_argument("--query", required=True, help="SMT1 track file")
    p.add_argument("--gallery", required=True, help="corpus manifest.json")
    p.add_argument("--k", type=int, default=5)

    p = sub.add_parser("evaluate", help="score generations against ground truth")
    _add_config_flags(p)
    p.add_argument("--gt", required=True, help="corpus manifest.json")
    p.add_argument("--gen", required=True, help="generated manifest.json")
    p.add_argument("--mmr-whole-ckpt", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("verify", help="re-hash artifacts against provenance")
    p.add_argument("--root", required=True)

    p = sub.add_parser("run-pipeline", help="run every stage end to end")
    _add_config_flags(p)
    p.add_argument("--out-dir", default=None)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except DependencyError as e:
        print(f"error in stage {e.stage}: {e}", file=sys.stderr)
        return 2
    except (DanceGenError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "gen-corpus":
        print(stage_corpus(_config_from_args(args).resolved(), args.out_dir))
        return 0

    if cmd == "train-hrvq":
        print(stage_hrvq(_config_from_args(args).resolved(), args.corpus, args.out))
        return 0

    if cmd == "train-mmr":
        print(stage_mmr(_config_from_args(args).resolved(), args.variant, args.corpus, args.out))
        return 0

    if cmd == "train-magm":
        print(stage_magm(_config_from_args(args).resolved(), args.corpus, args.hrvq_ckpt,
                         args.mmr_body_ckpt, args.mmr_whole_ckpt, args.out))
        return 0

    if cmd == "tokenize":
        tokenizer = load_tokenizer(args.ckpt)
        seq = dio.read_motion(args.infile)
        grid = encode(tokenizer, seq).grid
        dio.save_checkpoint(args.out, "tokens",
                            {"n_frames": grid.n_frames, "fps": grid.fps}, 0,
                            {"indices": grid.indices})
        print(args.out)
        return 0

    if cmd == "detokenize":
        tokenizer = load_tokenizer(args.ckpt)
        kind, meta, _seed, arrays = dio.load_checkpoint(args.infile)
        if kind != "tokens":
            raise DanceGenError(f"{args.infile}: not a token file")
        missing = [key for key, held in (("n_frames", meta), ("fps", meta), ("indices", arrays))
                   if key not in held]
        if missing:
            raise DanceGenError(f"{args.infile}: token file lacks {', '.join(missing)}")
        grid = TokenGrid(arrays["indices"], meta["n_frames"], meta["fps"])
        dio.write_motion(args.out, decode(tokenizer, grid))
        print(args.out)
        return 0

    if cmd == "generate":
        tokenizer = load_tokenizer(args.hrvq_ckpt)
        model = load_generator(args.magm_ckpt)
        track = dio.read_track(args.track)
        gcfg = GenerationConfig(cfg_scale_base=args.cfg_scale_base,
                                cfg_scale_residual=args.cfg_scale_residual,
                                iterations=args.iterations, seed=args.seed)
        dance = generate(model, tokenizer, track, gcfg)
        dio.write_motion(args.out, dance)
        if args.export_csv:
            positions = recover_global_positions(dance)
            with open(args.export_csv, "w", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(["frame", "joint", "x", "y", "z"])
                for t in range(positions.shape[0]):
                    for j in range(positions.shape[1]):
                        writer.writerow([t, j, f"{positions[t, j, 0]:.6f}",
                                         f"{positions[t, j, 1]:.6f}", f"{positions[t, j, 2]:.6f}"])
        print(args.out)
        return 0

    if cmd == "retrieve":
        model = load_retrieval(args.mmr_ckpt)
        track = dio.read_track(args.query)
        samples, _ = dio.load_corpus(args.gallery)
        order, sims = retrieve(model, track, [s.motion for s in samples], args.k)
        for rank, (idx, sim) in enumerate(zip(order, sims), start=1):
            print(f"{rank}\t{samples[idx].sample_id}\t{sim:.4f}")
        return 0

    if cmd == "evaluate":
        print(stage_evaluate(_config_from_args(args).resolved(), args.gt, args.gen,
                             args.mmr_whole_ckpt, args.report))
        return 0

    if cmd == "verify":
        problems = verify_provenance(args.root)
        if problems:
            for p in problems:
                print(p, file=sys.stderr)
            return 1
        print("all artifacts verified")
        return 0

    if cmd == "run-pipeline":
        cfg = _config_from_args(args)
        report = run_pipeline(cfg)
        print(report)
        return 0

    raise DanceGenError(f"unhandled command {cmd}")


if __name__ == "__main__":
    raise SystemExit(main())
