"""Replay the golden CLI corpus: same exit code and the same output bytes.

The corpus (`tests/golden/corpus.json`) was generated by
`tests/golden/make_corpus.py`; every job runs through `main()` with its
document as UTF-8 bytes on standard input and `CUSP_ATLAS_BOUND` unset.
"""

import json
from pathlib import Path

import pytest

from cusp_atlas.cli import ENV_BOUND, main

CORPUS = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("job", CORPUS, ids=[job["name"] for job in CORPUS])
def test_golden_job(job, monkeypatch, feed_stdin, capsys):
    monkeypatch.delenv(ENV_BOUND, raising=False)
    feed_stdin(job["stdin"])
    code = main(job["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (job["exit"], job["stdout"], job["stderr"])
