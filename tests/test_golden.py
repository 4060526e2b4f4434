"""Replay the golden CLI corpus: same exit code and the same output bytes.

The corpus (`tests/golden/corpus.json`) was generated by
`tests/golden/make_corpus.py`; every job runs through `main()` with its
document as UTF-8 bytes on standard input and `CUSP_ATLAS_BOUND` unset.

The reach test replays the corpus once more under a profiler and checks
that every function and method written under `src/` runs, but for a short
commented list: library code that only tests call is deleted, not kept.
"""

import importlib
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import cusp_atlas
from cusp_atlas.cli import ENV_BOUND, main

CORPUS = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("job", CORPUS, ids=[job["name"] for job in CORPUS])
def test_golden_job(job, monkeypatch, feed_stdin, capsys):
    monkeypatch.delenv(ENV_BOUND, raising=False)
    feed_stdin(job["stdin"])
    code = main(job["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (job["exit"], job["stdout"], job["stderr"])


# Written under src/ and not run by the corpus, each for a reason.
UNREACHED = {
    # wrapped by name in perfbench/tracer.py, so kept although no job needs them
    "lparams.ExponentMultiset.__init__",
    "lparams.ExponentMultiset.__contains__",
    "lparams.ExponentMultiset.multiplicity",
    "lparams.ExponentMultiset.union",
    "lparams.ExponentMultiset.entries",
    # called by the benchmark's sweep workload
    "lparams.ExponentMultiset.__repr__",
    "cuspsupport.all_order_slice_supports",
    # write the message of a failed invariant check, which no job reaches
    "orbits.SignCharacter.__str__",
    "symbols.USymbol.__str__",
    "verifications._pair",
    # reads a row bitset back as entries for the messages of a refused symbol
    # row and a failed interval check, and for USymbol.__str__
    "symbols._entries",
}


def _written_in(module) -> dict:
    """{code object: "module.qualname"} of every function and method whose
    source is the module's own file (so no dataclass or enum method).

    An ``lru_cache`` is cleared, so that its function is entered afresh.
    """
    out = {}

    def add(fn) -> None:
        if getattr(fn, "cache_clear", None):
            fn.cache_clear()
        fn = inspect.unwrap(fn)
        code = getattr(fn, "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            out[code] = f"{module.__name__.rpartition('.')[2]}.{fn.__qualname__}"

    for value in vars(module).values():
        if inspect.isclass(value) and value.__module__ == module.__name__:
            for member in vars(value).values():
                if isinstance(member, property):
                    for fn in (member.fget, member.fset, member.fdel):
                        if fn is not None:
                            add(fn)
                else:
                    add(getattr(member, "__func__", member))
        elif callable(value):
            add(value)
    return out


def test_corpus_reaches_all_of_src(monkeypatch, feed_stdin, capsys):
    written = {}
    for info in pkgutil.iter_modules(cusp_atlas.__path__):
        written.update(_written_in(importlib.import_module(f"cusp_atlas.{info.name}")))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    monkeypatch.delenv(ENV_BOUND, raising=False)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for job in CORPUS:
            feed_stdin(job["stdin"])
            main(job["argv"])
            capsys.readouterr()
    finally:
        sys.setprofile(previous)
    assert {name for code, name in written.items() if code not in entered} == UNREACHED
