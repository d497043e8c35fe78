"""The library layers the traced run times, and where each should be busy.

Each entry: metric prefix, defining module, qualified name inside it, and the
workloads on which the layer table in README.md predicts calls.  Layers whose
work belongs to set-up (checkpoints, corpus and input synthesis) are counted
over set-up spans; every other layer over the measured phase only, so the
brief training in set-up does not show as backward passes on generate.
"""

from __future__ import annotations

ALL = ("generate", "train", "library")

LAYERS = (
    # name, module, qualname, busy on
    ("generator.generate", "dancegen.generator", "generate", ("generate",)),
    ("generator.forward_base", "dancegen.generator", "MaskedGenerator.forward_base",
     ("generate", "train")),
    ("generator.forward_residual", "dancegen.generator", "MaskedGenerator.forward_residual",
     ("generate", "train")),
    ("generator.base_loss", "dancegen.generator", "base_loss", ("train",)),
    ("generator.residual_loss", "dancegen.generator", "residual_loss", ("train",)),
    ("tokenizer.encode", "dancegen.tokenizer", "encode", ("train", "library")),
    ("tokenizer.MotionTokenizer.ladder", "dancegen.tokenizer", "MotionTokenizer.ladder",
     ("train", "library")),
    ("tokenizer.decode", "dancegen.tokenizer", "decode", ("generate", "library")),
    ("tokenizer.decoder_apply", "dancegen.tokenizer", "decoder_apply", ALL),
    ("tokenizer.tokenizer_loss", "dancegen.tokenizer", "tokenizer_loss", ("train",)),
    ("tokenizer.refit_decoder_bypass", "dancegen.tokenizer", "refit_decoder_bypass",
     ("train",)),
    ("tokenizer.Codebook.ema_update", "dancegen.tokenizer", "Codebook.ema_update", ("train",)),
    ("retrieval.encode_music", "dancegen.retrieval", "encode_music", ALL),
    ("retrieval.encode_motion", "dancegen.retrieval", "encode_motion", ("library",)),
    ("retrieval.retrieve", "dancegen.retrieval", "retrieve", ("library",)),
    ("retrieval.segment_latents", "dancegen.retrieval", "segment_latents", ("library",)),
    ("retrieval.info_nce", "dancegen.retrieval", "info_nce", ("train",)),
    ("metrics.motion_features", "dancegen.metrics", "motion_features", ("library",)),
    ("metrics.fid", "dancegen.metrics", "fid", ("library",)),
    ("metrics.beat_alignment_score", "dancegen.metrics", "beat_alignment_score", ("library",)),
    ("metrics.mmr_matching_score", "dancegen.metrics", "mmr_matching_score", ("library",)),
    ("metrics.train_extractor", "dancegen.metrics", "train_extractor", ("train",)),
    ("nn.Tensor.backward", "dancegen.nn.tensor", "Tensor.backward", ("train",)),
    ("nn.AdamW.step", "dancegen.nn.optim", "AdamW.step", ("train",)),
    ("nn.conv1d", "dancegen.nn.tensor", "conv1d", ALL),
    ("nn.TransformerBlock", "dancegen.nn.layers", "TransformerBlock.__call__",
     ("generate", "train")),
    ("io.save_checkpoint", "dancegen.io", "save_checkpoint", ALL),
    ("io.load_checkpoint", "dancegen.io", "load_checkpoint", ALL),
    ("io.write_motion", "dancegen.io", "write_motion", ("generate",)),
    ("synth.make_corpus", "dancegen.synth", "make_corpus", ALL),
    ("synth.generate_track", "dancegen.synth", "generate_track", ALL),
    ("synth.generate_dance", "dancegen.synth", "generate_dance", ALL),
)

SETUP_LAYERS = frozenset({"io.save_checkpoint", "io.load_checkpoint", "synth.make_corpus",
                          "synth.generate_track", "synth.generate_dance"})

# an exact count taken from MaskedGenerator.forward_count, not from spans
FORWARD_PASSES = "generator.forward_passes_per_clip"


def targets():
    return [(name, module, qualname) for name, module, qualname, _ in LAYERS]


def busy_on(workload: str) -> list[str]:
    return [name for name, _m, _q, where in LAYERS if workload in where]


def per_layer_values(setup: dict, measured: dict, forward_passes: float) -> dict[str, float]:
    """Every `<layer>.<calls|busy_s|self_s>` value, zero for a layer not called."""
    out = {FORWARD_PASSES: forward_passes}
    for name, *_ in LAYERS:
        row = (setup if name in SETUP_LAYERS else measured).get(name, {})
        for stat in ("calls", "busy_s", "self_s"):
            out[f"{name}.{stat}"] = row.get(stat, 0)
    return out
