"""Byte pins of the two outputs every release must reproduce: the gallery
file of a small enrolled corpus and the trial scores of a small corpus.

A refactor that claims unchanged outputs keeps these sha256 digests; a
change that means to move them re-pins them and says why.  The digests are
of this numpy/scipy build on x86-64, where the bench's output digests are
taken too.
"""

import hashlib

import numpy as np

from irisfuse.evaluation import run_trials
from irisfuse.store import empty_gallery, enroll, to_bytes
from irisfuse.synth import build_corpus

GALLERY_SHA256 = "e68ad0259d7783e270d082dc80f1b999a963723c7cfd9862380e29bb4c1dd687"
TRIALS_SHA256 = "e5b6166bece609752224c919bd378aa963eb4e0157db885fa2e3bcf61edee169"


def test_gallery_bytes_are_pinned():
    corpus = build_corpus(4, 2, master_seed=2026)
    gallery = empty_gallery()
    for ident in range(4):
        gallery = enroll(gallery, f"eye-{ident}",
                         [r.image for r in corpus.records if r.identity == ident])
    assert hashlib.sha256(to_bytes(gallery)).hexdigest() == GALLERY_SHA256


def test_trial_scores_are_pinned():
    outcome = run_trials(build_corpus(4, 2, 2026))
    digest = hashlib.sha256()
    for name, trials in {**outcome.per_algorithm, "fused": outcome.fused}.items():
        digest.update(name.encode())
        for scores in (trials.genuine, trials.imposter):
            digest.update(np.asarray(scores, dtype="<f8").tobytes())
    assert digest.hexdigest() == TRIALS_SHA256
