"""Regenerate the golden CLI corpus (`corpus.json`) from the current code.

    PYTHONPATH=src python tests/golden/make_corpus.py

Each job is run through `cusp_atlas.cli.main` in-process, with its document
as UTF-8 bytes on standard input and `CUSP_ATLAS_BOUND` unset; the corpus
records the exit code and the exact standard output and error.
`tests/test_golden.py` replays it.  Regenerate only for an intended output
change, and say which jobs moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from cusp_atlas.cli import ENV_BOUND, main

CORPUS = Path(__file__).with_name("corpus.json")

P = {"name": "p", "dim": 1, "type": "orthogonal"}
Q_SP = {"name": "q", "dim": 2, "type": "symplectic"}
R = {"name": "r", "dim": 1, "type": "orthogonal"}
S = {"name": "s", "dim": 2, "type": "symplectic"}
T = {"name": "t", "dim": 1, "type": "orthogonal"}
G = {"name": "g", "dim": 1, "type": "gl-pair"}


def group(family, n):
    return {"family": family, "N": n}


def blocks(label, sizes, signs=None):
    """Blocks of one label; the label is spelled out once, then referenced."""
    out = []
    for i, a in enumerate(sizes):
        block = {"pi": label if i == 0 else label["name"], "a": a}
        if signs is not None:
            block["sign"] = signs[i]
        out.append(block)
    return out


def triple(command, family, n, gl_factors, cusp_blocks, **extra):
    return dict({"command": command, "group": group(family, n),
                 "gl_factors": gl_factors, "cusp_blocks": cusp_blocks}, **extra)


def orbit(command, family, n, parts, signs=None):
    doc = {"command": command, "group": group(family, n), "partition": parts}
    if signs is not None:
        doc["signs"] = signs
    return doc


def param(command, family, n, block_list):
    return {"command": command, "group": group(family, n), "blocks": block_list}


# (name, command line, job document or raw text or None); a job with a
# document reads it from standard input
JOBS = [
    # validate: partitions of every family, then parameters
    ("validate-sp-distinguished", ["validate"], orbit("validate", "Sp", 6, [4, 2])),
    ("validate-sp-odd-pair", ["validate"], orbit("validate", "Sp", 6, [3, 3])),
    ("validate-sp-invalid", ["validate"], orbit("validate", "Sp", 6, [3, 2, 1])),
    ("validate-sp-size-mismatch", ["validate"], orbit("validate", "Sp", 6, [4, 4])),
    ("validate-soeven-degenerate", ["validate"], orbit("validate", "SOeven", 8, [4, 4])),
    ("validate-soodd", ["validate", "--json"], orbit("validate", "SOodd", 9, [5, 3, 1])),
    ("validate-oeven", ["validate"], orbit("validate", "Oeven", 6, [3, 2, 1])),
    ("validate-gl", ["validate"], orbit("validate", "GL", 3, [2, 1])),
    ("validate-parameter", ["validate"], param("validate", "Sp", 6, blocks(P, [2, 4]))),
    ("validate-parameter-invalid", ["validate"], param("validate", "Sp", 8, blocks(P, [2, 2, 3]))),
    ("validate-parameter-gl-pair", ["validate"], param("validate", "SOodd", 3, blocks(G, [3]))),
    # springer on Sp / SO
    ("springer-sp-alternating", ["springer"], orbit("springer", "Sp", 6, [4, 2], [1, -1])),
    ("springer-sp-collapse", ["springer"], orbit("springer", "Sp", 6, [4, 2], [1, 1])),
    ("springer-sp-cuspidal", ["springer"], orbit("springer", "Sp", 12, [6, 4, 2], [-1, 1, -1])),
    ("springer-sp-long", ["springer", "--json"], orbit("springer", "Sp", 20, [8, 6, 4, 2], [1, 1, -1, -1])),
    ("springer-soodd", ["springer"], orbit("springer", "SOodd", 9, [5, 3, 1], [-1, -1, 1])),
    ("springer-soodd-cuspidal", ["springer"], orbit("springer", "SOodd", 9, [5, 3, 1], [1, -1, 1])),
    ("springer-soeven", ["springer"], orbit("springer", "SOeven", 16, [7, 5, 3, 1], [1, 1, -1, 1])),
    # springer on O_N: cases I, II and III
    ("springer-o-case-one-odd", ["springer"], orbit("springer", "Oodd", 9, [5, 3, 1], [-1, -1, 1])),
    ("springer-o-case-one-even", ["springer"], orbit("springer", "Oeven", 16, [7, 5, 3, 1], [1, -1, 1, -1])),
    ("springer-o-case-two", ["springer"], orbit("springer", "Oeven", 6, [2, 2, 1, 1], [-1])),
    ("springer-o-case-two-plus", ["springer"], orbit("springer", "Oeven", 4, [3, 1], [1, 1])),
    ("springer-o-case-three", ["springer"], orbit("springer", "Oeven", 4, [2, 2], [])),
    # springer on products of orthogonal groups
    ("springer-product-two-case-one", ["springer"],
     {"command": "springer", "factors": [{"partition": [3, 1], "signs": [1, -1]},
                                         {"partition": [3, 1], "signs": [1, -1]}]}),
    ("springer-product-mixed", ["springer"],
     {"command": "springer", "factors": [{"partition": [3, 1], "signs": [1, -1]},
                                         {"partition": [2, 2, 1, 1], "signs": [1]},
                                         {"partition": [2, 2], "signs": []}]}),
    ("springer-product-two-plus-three", ["springer", "--json"],
     {"command": "springer", "factors": [{"partition": [2, 2, 1, 1], "signs": [-1]},
                                         {"partition": [3, 1], "signs": [1, 1]},
                                         {"partition": [2, 2], "signs": []}]}),
    ("springer-product-single", ["springer"],
     {"command": "springer", "factors": [{"partition": [5, 3, 1], "signs": [1, -1, 1]}]}),
    ("springer-product-empty", ["springer"], {"command": "springer", "factors": []}),
    ("springer-o-zero", ["springer"], orbit("springer", "Oeven", 0, [], [])),
    ("springer-product-o-zero", ["springer"],
     {"command": "springer", "factors": [{"partition": [3, 1], "signs": [1, -1]},
                                         {"partition": [], "signs": []}]}),
    ("springer-not-distinguished", ["springer"], orbit("springer", "Sp", 6, [2, 2, 2], [1])),
    ("springer-invalid-partition", ["springer"], orbit("springer", "Sp", 4, [3, 1], [])),
    ("springer-sign-count", ["springer"], orbit("springer", "Sp", 6, [4, 2], [1])),
    ("springer-bad-sign", ["springer"], orbit("springer", "Sp", 6, [4, 2], [1, 0])),
    # support: one label, several labels, fixed points, errors
    ("support-sp6", ["support"], param("support", "Sp", 6, blocks(P, [2, 4], [1, -1]))),
    ("support-sp6-all-plus", ["support"], param("support", "Sp", 6, blocks(P, [2, 4], [1, 1]))),
    ("support-sp6-compact", ["support", "--json"], param("support", "Sp", 6, blocks(P, [2, 4], [-1, 1]))),
    ("support-sp-cuspidal", ["support"], param("support", "Sp", 12, blocks(P, [2, 4, 6], [-1, 1, -1]))),
    ("support-sp-multilabel", ["support"],
     param("support", "Sp", 14, blocks(P, [2, 4], [1, 1]) + blocks(Q_SP, [1, 3], [1, -1]))),
    ("support-sp-three-labels", ["support"],
     param("support", "Sp", 20, blocks(P, [2, 4, 6], [1, -1, -1]) + blocks(Q_SP, [1], [-1])
           + blocks(T, [2, 4], [-1, -1]))),
    ("support-soodd", ["support"], param("support", "SOodd", 9, blocks(P, [1, 3, 5], [1, 1, 1]))),
    ("support-soodd-multilabel", ["support"],
     param("support", "SOodd", 13, blocks(P, [1, 3, 5], [1, -1, -1]) + blocks(Q_SP, [2], [1]))),
    ("support-soeven-multilabel", ["support", "--json"],
     param("support", "SOeven", 24, blocks({"name": "p2", "dim": 2, "type": "orthogonal"},
                                           [1, 3], [1, 1])
           + blocks(P, [1, 3, 5, 7], [-1, 1, 1, -1]))),
    ("support-soeven-cuspidal", ["support"], param("support", "SOeven", 4, blocks(P, [1, 3], [1, -1]))),
    ("support-invalid-parameter", ["support"], param("support", "Sp", 6, blocks(P, [1, 5], [1, 1]))),
    ("support-undefined-label", ["support"],
     param("support", "Sp", 6, [{"pi": "ghost", "a": 2, "sign": 1}])),
    ("support-label-redefined", ["support"],
     param("support", "Sp", 6, [{"pi": P, "a": 2, "sign": 1},
                                {"pi": dict(P, dim=2), "a": 4, "sign": 1}])),
    ("support-missing-blocks", ["support"], {"command": "support", "group": group("Sp", 6)}),
    # 53 twists from 99/2 down to 1/2, with 3/2 twice and 1/2 three times
    ("support-repeated-twists", ["support"],
     param("support", "Sp", 106, blocks(P, [2, 4, 100], [1, 1, 1]))),
    # a non-ASCII label name: the output escapes it as \u03c0
    ("support-non-ascii-label", ["support"],
     param("support", "Sp", 6, blocks({"name": "\u03c0", "dim": 1, "type": "orthogonal"},
                                      [2, 4], [1, -1]))),
    # the shape of a benchmark `wide` job: one large block (a = 101), two labels
    ("support-wide-a101", ["support"],
     param("support", "SOodd", 109, blocks(P, [1, 3, 101], [1, -1, 1])
           + blocks(Q_SP, [2], [-1]))),
    # every block eliminated: the folded segments of the pairs (2,4) and (6,8)
    # overlap, so 5/2, 3/2 and 1/2 repeat
    ("support-overlapping-pair-segments", ["support"],
     param("support", "Sp", 20, blocks(P, [2, 4, 6, 8], [1, 1, 1, 1]))),
    # an orthogonal-side label whose twists hold the exponent 0 twice
    ("support-zero-twice", ["support"],
     param("support", "SOeven", 22, blocks(P, [1, 3, 7, 11], [1, 1, 1, 1]))),
    # two labels, each with surviving-block segments that abut (9/2,7/2 then
    # 5/2 for p; 4,3 then 2 for q), so they read as one run per label
    ("support-abutting-segments", ["support"],
     param("support", "Sp", 48, blocks(P, [2, 6, 10], [-1, 1, -1])
           + blocks(Q_SP, [1, 5, 9], [1, -1, 1]))),
    # refused before any work that grows with N
    ("support-over-size-cap", ["support"],
     param("support", "Sp", 1000002, blocks(P, [1000002], [1]))),
    # cuspidal-test
    ("cuspidal-test-true", ["cuspidal-test"],
     param("cuspidal-test", "Sp", 4, [{"pi": {"name": "m1", "dim": 1, "type": "orthogonal"},
                                       "a": 2, "sign": -1},
                                      {"pi": {"name": "m2", "dim": 1, "type": "orthogonal"},
                                       "a": 2, "sign": -1}])),
    ("cuspidal-test-false", ["cuspidal-test"], param("cuspidal-test", "Sp", 6, blocks(P, [2, 4], [1, -1]))),
    ("cuspidal-test-so", ["cuspidal-test"], param("cuspidal-test", "SOodd", 9, blocks(P, [1, 3, 5], [1, -1, 1]))),
    # reducibility
    ("reducibility-present", ["reducibility"],
     {"command": "reducibility", "group": group("Sp", 6), "blocks": blocks(P, [2, 4]), "pi": "p"}),
    ("reducibility-absent-matched", ["reducibility"],
     {"command": "reducibility", "group": group("SOodd", 3), "blocks": blocks(P, [3]),
      "pi": T}),
    ("reducibility-absent-other", ["reducibility"],
     {"command": "reducibility", "group": group("Sp", 6), "blocks": blocks(P, [2, 4]),
      "pi": T}),
    ("reducibility-gl-pair", ["reducibility"],
     {"command": "reducibility", "group": group("Sp", 6), "blocks": blocks(P, [2, 4]),
      "pi": G}),
    ("reducibility-invalid-blocks", ["reducibility"],
     {"command": "reducibility", "group": group("Sp", 6), "blocks": blocks(P, [3, 3]),
      "pi": "p"}),
    # bernstein and hecke
    ("bernstein-b", ["bernstein"], triple("bernstein", "Sp", 10, [{"pi": R, "ell": 2}], blocks(R, [2, 4]))),
    ("bernstein-mixed", ["bernstein"],
     triple("bernstein", "Sp", 20, [{"pi": S, "ell": 2}, {"pi": T, "ell": 1},
                                    {"pi": G, "ell": 2}], blocks(R, [2, 4]))),
    ("bernstein-torsion", ["bernstein", "--json"],
     triple("bernstein", "Sp", 16, [{"pi": R, "ell": 2}, {"pi": G, "ell": 3, "torsion": 2}],
            [{"pi": "r", "a": 2}, {"pi": "r", "a": 4}])),
    ("bernstein-so-even", ["bernstein"],
     triple("bernstein", "SOeven", 8, [{"pi": T, "ell": 2}], blocks(R, [1, 3]))),
    ("bernstein-normalization", ["bernstein"],
     triple("bernstein", "Sp", 12, [{"pi": R, "ell": 1}], blocks(R, [2, 4]))),
    ("hecke-b", ["hecke"], triple("hecke", "Sp", 10, [{"pi": R, "ell": 2}], blocks(R, [2, 4]),
                           theta={"r": 1})),
    ("hecke-partner", ["hecke"],
     triple("hecke", "Sp", 10, [{"pi": R, "ell": 2, "partner_mprime": 2}], blocks(R, [2, 4]),
            theta={"r": -1})),
    ("hecke-mixed", ["hecke"],
     triple("hecke", "Sp", 20, [{"pi": S, "ell": 2}, {"pi": T, "ell": 1}, {"pi": G, "ell": 2}],
            blocks(R, [2, 4]))),
    ("hecke-bad-theta", ["hecke"],
     triple("hecke", "Sp", 10, [{"pi": R, "ell": 2}], blocks(R, [2, 4]), theta={"r": 0})),
    # enumerate
    ("enumerate-sp4", ["enumerate", "--json"], {"command": "enumerate", "group": group("Sp", 4)}),
    ("enumerate-soodd7", ["enumerate"], {"command": "enumerate", "group": group("SOodd", 7)}),
    ("enumerate-soeven8", ["enumerate"], {"command": "enumerate", "group": group("SOeven", 8)}),
    ("enumerate-over-default-bound", ["enumerate"], {"command": "enumerate", "group": group("Sp", 26)}),
    ("enumerate-over-bound", ["enumerate", "--bound", "6"], {"command": "enumerate", "group": group("Sp", 8)}),
    # no --bound lifts the cap of 32 on enumerate sizes and selfcheck ranges
    ("enumerate-over-cap", ["enumerate", "--bound", "100"], {"command": "enumerate", "group": group("Sp", 34)}),
    # selfcheck without --bound: the quick defaults, and small bounds
    ("selfcheck-quick", ["selfcheck"], None),
    ("selfcheck-small-bounds", ["selfcheck"],
     {"command": "selfcheck",
      "bounds": {"defect": 6, "orders": 6, "support": 6, "census": 6, "cuspidal": 6}}),
    ("selfcheck-unknown-bound", ["selfcheck"], {"command": "selfcheck", "bounds": {"speed": 1}}),
    ("selfcheck-over-cap", ["selfcheck", "--bound", "100"], {"command": "selfcheck", "bounds": {"census": 34}}),
    # schema errors of the document itself
    ("schema-not-json", ["validate"], "{not json"),
    ("schema-not-object", ["validate"], "[1, 2]"),
    ("schema-command-mismatch", ["support"], {"command": "enumerate", "group": group("Sp", 4)}),
    ("schema-unknown-field", ["enumerate"],
     {"command": "enumerate", "group": group("Sp", 4), "extra": 1}),
    ("schema-unknown-field-escaped", ["enumerate"],
     {"command": "enumerate", "group": group("Sp", 4), "a/b~c": 1}),
    ("schema-unknown-family", ["enumerate"], {"command": "enumerate", "group": group("Xp", 4)}),
    ("schema-bad-size", ["enumerate"], {"command": "enumerate", "group": group("Sp", 5)}),
    ("schema-bad-integer", ["enumerate"], {"command": "enumerate", "group": group("Sp", "4")}),
]

def build_jobs() -> list[dict]:
    out = []
    for name, argv, doc in JOBS:
        argv = list(argv)
        stdin = ""
        if doc is not None:
            argv += ["--input", "-"]
            stdin = doc if isinstance(doc, str) else json.dumps(doc)
        out.append({"name": name, "argv": argv, "stdin": stdin})
    return out


def replay(job: dict) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(job["stdin"].encode("utf-8")), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(job["argv"])
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def main_generate() -> int:
    os.environ.pop(ENV_BOUND, None)
    corpus = []
    for job in build_jobs():
        code, stdout, stderr = replay(job)
        corpus.append(dict(job, exit=code, stdout=stdout, stderr=stderr))
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=True) + "\n", encoding="utf-8")
    codes = {}
    for job in corpus:
        codes[job["exit"]] = codes.get(job["exit"], 0) + 1
    print(f"{len(corpus)} jobs written to {CORPUS.name}; exit codes {dict(sorted(codes.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main_generate())
