"""The solve corpus (``tests/corpus.py``) reports what it reported when its
digest was committed: every report, residual, residual detail, level table
and refusal of about 3000 fixed inputs, byte for byte."""

import json

import corpus


def test_solve_corpus_digest_is_unchanged():
    assert corpus.digests() == json.loads(corpus.DIGEST.read_text())
