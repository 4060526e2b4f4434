"""Fuzz the CLI front end: on any JSON document only CuspAtlasError escapes,
and `emit` writes every output document as `json.dumps(..., indent=2)` does.

Three kinds of document: any JSON value; a job with any JSON value as its
"command"; and a well-formed job of a random command whose sizes match, with
up to two of its values replaced by a value of the wrong shape or dropped.
The jobs are built from a seeded `random.Random`, so one costs microseconds
rather than a hypothesis draw per field.  Integers stay small because
`support` and `validate` run unbounded on a large block.
"""

import copy
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cusp_atlas.cli import COMMANDS, emit, parse_input, run
from cusp_atlas.errors import CuspAtlasError, SchemaError

KEYS = ("command", "group", "family", "N", "partition", "signs", "factors", "blocks",
        "pi", "a", "sign", "name", "dim", "type", "gl_factors", "cusp_blocks", "ell",
        "torsion", "partner_mprime", "theta", "bounds", "defect", "orders", "support",
        "census", "cuspidal")
FAMILIES = ("Sp", "SOodd", "SOeven", "Oodd", "Oeven", "GL")
TYPES = ("orthogonal", "symplectic", "gl-pair")
NAMES = ("p", "q", "r")
CHECK_BOUNDS = ("defect", "orders", "support", "census", "cuspidal")
WORDS = tuple(COMMANDS) + FAMILIES + TYPES + NAMES + ("",)
# mostly +-1, now and then a value equal to +-1 that is not an integer
SIGNS = (1, -1, 1, -1, 1, -1, True, 1.0, -1.0)
SCALARS = (None, True, False, -3, -1, 0, 1, 2, 5, 10, 1.0, -1.0, 0.5, 2.0) + WORDS

json_values = st.recursive(
    st.sampled_from(SCALARS),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5),
    max_leaves=8)


def wrong_value(rnd, depth: int = 2):
    """A scalar, list or object of schema words, keys and small numbers."""
    roll = rnd.random()
    if depth == 0 or roll < 0.6:
        return rnd.choice(SCALARS)
    if roll < 0.8:
        return [wrong_value(rnd, depth - 1) for _ in range(rnd.randint(0, 3))]
    return {rnd.choice(KEYS): wrong_value(rnd, depth - 1) for _ in range(rnd.randint(0, 3))}


def sign_list(rnd, parts: list, parity: int) -> list:
    return [rnd.choice(SIGNS) for q in sorted(set(parts)) if q % 2 == parity]


def partition_of(rnd, family: str) -> list:
    """A partition with the parts that carry no generator doubled."""
    free = 0 if family == "Sp" else 1
    raw = [rnd.randint(1, 5) for _ in range(rnd.randint(0, 4))]
    return sorted((q for q in raw for _ in range(1 if q % 2 == free else 2)), reverse=True)


def labelled_blocks(rnd, names, key: str, with_sign: bool, family: str):
    """Blocks over a few labels, each defined at its first use; and their total size.

    Block sizes `a` get the parity that makes the block of the family's type.
    """
    kinds = {name: (rnd.randint(1, 2), rnd.choice(TYPES + TYPES[:2])) for name in names}
    labels = {name: {"name": name, "dim": dim, "type": type_}
              for name, (dim, type_) in kinds.items()}
    blocks, size = [], 0
    pairs = sorted({(rnd.choice(names), rnd.randint(0, 2)) for _ in range(rnd.randint(0, 4))})
    for name, n in rnd.sample(pairs, len(pairs)):
        dim, type_ = kinds[name]
        odd = (type_ == "symplectic") == (family == "Sp")
        n = 2 * n + (1 if odd else 2) if key == "a" else n + 1
        blocks.append({"pi": labels.pop(name, name), key: n})
        if with_sign:
            blocks[-1]["sign"] = rnd.choice(SIGNS)
        size += dim * n
    return blocks, size


def clean_document(rnd, names=NAMES) -> dict:
    """A job of a random command whose sizes match, built as the schema asks,
    its labels named from ``names``."""
    command = rnd.choice(tuple(COMMANDS))
    family = rnd.choice(FAMILIES)
    doc = {"command": command}
    if command in ("validate", "springer") and rnd.random() < 0.5:
        parts = partition_of(rnd, family)
        doc.update(group={"family": family, "N": sum(parts)}, partition=parts)
        if command == "springer":
            doc["signs"] = sign_list(rnd, parts, 0 if family == "Sp" else 1)
    elif command == "springer":
        factors = [partition_of(rnd, "Oodd") for _ in range(rnd.randint(0, 3))]
        doc["factors"] = [{"partition": f, "signs": sign_list(rnd, f, 1)} for f in factors]
    elif command in ("validate", "support", "cuspidal-test", "reducibility"):
        with_sign = command in ("support", "cuspidal-test")
        blocks, size = labelled_blocks(rnd, names, "a", with_sign, family)
        doc.update(group={"family": family, "N": size}, blocks=blocks)
        if command == "reducibility":
            doc["pi"] = rnd.choice(names)
    elif command in ("bernstein", "hecke"):
        cusp, n_sharp = labelled_blocks(rnd, names[:2], "a", False, family)
        factors, size = labelled_blocks(rnd, names[2:], "ell", False, family)
        doc.update(group={"family": family, "N": n_sharp + 2 * size},
                   gl_factors=factors, cusp_blocks=cusp)
        if command == "hecke":
            doc["theta"] = {rnd.choice(names): rnd.choice(SIGNS) for _ in range(rnd.randint(0, 2))}
    elif command == "enumerate":
        doc["group"] = {"family": family, "N": rnd.randint(0, 8)}
    elif rnd.random() < 0.5:
        doc["bounds"] = {rnd.choice(CHECK_BOUNDS): rnd.randint(1, 6)
                         for _ in range(rnd.randint(0, 3))}
    return doc


def spots(value, path=()):
    """The path to every value inside a document."""
    if isinstance(value, (dict, list)):
        for key, inner in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield path + (key,)
            yield from spots(inner, path + (key,))


def mutated_document(rnd) -> dict:
    doc = clean_document(rnd)
    for _ in range(rnd.choice((0, 0, 1, 2))):
        where = list(spots(doc))
        if not where:
            break
        *path, last = rnd.choice(where)
        parent = doc
        for key in path:
            parent = parent[key]
        if isinstance(parent, dict) and rnd.random() < 0.5:
            del parent[last]
        else:
            parent[last] = wrong_value(rnd)
    return doc


def assert_contract(doc) -> None:
    """Run the document; only CuspAtlasError may escape, no float may come out,
    and `emit` writes what `json.dumps` writes."""
    try:
        out = run(parse_input(doc), bound=6)
    except CuspAtlasError:
        return
    assert emit(out) == json.dumps(out, sort_keys=True, indent=2), doc
    stack = [out]
    while stack:
        value = stack.pop()
        assert not isinstance(value, (float, Fraction)), (doc, out)
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(json_values)
def test_any_document(doc):
    assert_contract(doc)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=True), json_values)
def test_any_command(rnd, command):
    assert_contract(dict(mutated_document(rnd), command=command))


@settings(max_examples=600, derandomize=True, deadline=None)
@given(st.randoms(use_true_random=True))
def test_command_payloads(rnd):
    assert_contract(mutated_document(rnd))


# label names that RFC 6901 escapes, so that a theta key's token is escaped
ESCAPED_NAMES = ("p", "q/x", "r~y")
# for a leaf of each type, values of other JSON types; none is an object, which
# a label slot reads as a label definition and checks below the leaf
WRONG_TYPE = {int: ("1", None, True, 0.5, []), str: (1, None, True, 0.5, [])}


def well_formed_documents(command: str, count: int) -> list:
    """``count`` jobs of ``command`` from `clean_document` that parse."""
    rnd, out = random.Random(command), []
    while len(out) < count:
        doc = clean_document(rnd, ESCAPED_NAMES)
        if doc["command"] == command:
            try:
                parse_input(doc)
            except CuspAtlasError:
                continue
            out.append(doc)
    return out


def escaped(token) -> str:
    return str(token).replace("~", "~0").replace("/", "~1")


@pytest.mark.parametrize("command", COMMANDS)
def test_a_leaf_of_the_wrong_type_is_pointed_at(command):
    # every int, string or sign of a well-formed job, replaced by a value of
    # another JSON type, gives a SchemaError whose pointer names that leaf or
    # one of its ancestors
    damaged = 0
    for doc in well_formed_documents(command, 50):
        for path in spots(doc):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            leaf = parent[path[-1]]
            for wrong in WRONG_TYPE.get(type(leaf), ()):
                bad = copy.deepcopy(doc)
                inner = bad
                for key in path[:-1]:
                    inner = inner[key]
                inner[path[-1]] = wrong
                with pytest.raises(SchemaError) as err:
                    parse_input(bad)
                tokens = err.value.pointer.split("/")[1:]
                assert tokens == [escaped(key) for key in path[:len(tokens)]], (bad, err.value)
                damaged += 1
    assert damaged >= 50
