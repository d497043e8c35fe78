"""Shared tiny fixtures: a small corpus and short trainings, session-scoped
so the expensive pieces run once."""

import contextlib

import numpy as np
import pytest

from dancegen.synth import CorpusConfig, make_corpus


@pytest.fixture(scope="session")
def tiny_corpus():
    cfg = CorpusConfig(n_samples=30, seed=7, duration_s=4.0,
                       genres=(0, 1, 2), bpm_range=(100, 140))
    return make_corpus(cfg)


@pytest.fixture(scope="session")
def tiny_train_frames(tiny_corpus):
    return np.stack([s.motion.data for s in tiny_corpus if s.split == "train"])


@pytest.fixture(scope="session")
def tiny_tokenizer(tiny_train_frames):
    from dancegen.tokenizer import TokenizerConfig, train_tokenizer

    cfg = TokenizerConfig(codebook_size=64, code_dim=32, layers=2, hidden=16,
                          steps=30, batch=6, crop_frames=32, lr=1e-3,
                          warmup_steps=5, refit_every=10, seed=3)
    return train_tokenizer(tiny_train_frames, cfg)


@pytest.fixture(scope="session")
def tiny_retrieval_pair(tiny_corpus):
    from dancegen.retrieval import RetrievalConfig, train_retrieval

    train = [s for s in tiny_corpus if s.split == "train"]
    mot = [s.motion.data for s in train]
    feat = [s.track.features for s in train]
    models = {}
    for variant, seed in (("body", 11), ("whole", 12)):
        cfg = RetrievalConfig(variant=variant, hidden=24, steps=40, batch=8,
                              lr=1e-3, warmup_steps=5, crop_frames=64, seed=seed)
        models[variant] = train_retrieval(mot, feat, cfg)
    return models


@pytest.fixture(scope="session")
def tiny_generator(tiny_corpus, tiny_tokenizer, tiny_retrieval_pair):
    from dancegen.generator import GeneratorConfig, train_generator

    train = [s for s in tiny_corpus if s.split == "train"]
    cfg = GeneratorConfig(codebook_size=64, code_dim=32, layers_v=2, width=32,
                          depth=1, res_depth=1, heads=2, steps=30, batch=6,
                          lr=1e-3, warmup_steps=5, seed=5)
    return train_generator(train, tiny_tokenizer, tiny_retrieval_pair["body"],
                           tiny_retrieval_pair["whole"], cfg)


@pytest.fixture
def tape_probe():
    """Factory of a context that counts the op outputs joining a tape.  With
    force=True ops record the tape even inside nn.no_grad(), to compare
    tape-free results with taped ones.  The context yields a dict whose
    "taped" entry holds the count."""
    from dancegen.nn import tensor

    @contextlib.contextmanager
    def probe(force: bool = False):
        make = tensor.Tensor._make
        counts = {"taped": 0}

        def counting_make(data, parents, backward):
            previous = tensor._grad_enabled
            tensor._grad_enabled = previous or force
            try:
                out = make(data, parents, backward)
            finally:
                tensor._grad_enabled = previous
            counts["taped"] += out.requires_grad
            return out

        tensor.Tensor._make = staticmethod(counting_make)
        try:
            yield counts
        finally:
            tensor.Tensor._make = staticmethod(make)

    return probe
