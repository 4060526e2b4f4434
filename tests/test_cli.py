import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import pytest

import cusp_atlas
from cusp_atlas import census, cli, verifications
from cusp_atlas.cli import (COMMANDS, ENV_BOUND, MAX_CENSUS_SIZE, MAX_GROUP_SIZE, JobSpec, emit,
                            main, parse_input, run)
from cusp_atlas.errors import BoundExceeded, InternalCheckError, SchemaError

SUPPORT_DOC = {
    "command": "support",
    "group": {"family": "Sp", "N": 6},
    "blocks": [
        {"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": 2, "sign": 1},
        {"pi": "p", "a": 4, "sign": -1},
    ],
}


def test_support_document():
    out = run(parse_input(SUPPORT_DOC))
    assert out["gl_twists"] == [("p", "3/2"), ("p", "1/2")]
    assert out["cusp_blocks"] == [["p", 2]]
    assert out["cusp_char"] == [[["p", 2], -1]]
    assert all(out["checks"].values())
    assert out["p_adic_group"] == "SO_7(F)"


def test_enumerate_document():
    out = run(parse_input({"command": "enumerate", "group": {"family": "Sp", "N": 4}}))
    assert out == {"pairs": 7, "by_triple": {"d=0": 5, "d=1": 2}}


def test_cuspidal_test_document():
    doc = {
        "command": "cuspidal-test",
        "group": {"family": "Sp", "N": 4},
        "blocks": [
            {"pi": {"name": "m1", "dim": 1, "type": "orthogonal"}, "a": 2, "sign": -1},
            {"pi": {"name": "m2", "dim": 1, "type": "orthogonal"}, "a": 2, "sign": -1},
        ],
    }
    out = run(parse_input(doc))
    assert out == {"cuspidal": True, "sgroup_factors": True}


def test_cuspidal_test_job_reads_its_character_once(signs_read):
    # one read of the character, through signed_slices; is_cuspidal and
    # sgroup_factors both take its slices
    doc = {
        "command": "cuspidal-test",
        "group": {"family": "Sp", "N": 6},
        "blocks": [
            {"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": 2, "sign": -1},
            {"pi": "p", "a": 4, "sign": 1},
        ],
    }
    out = run(parse_input(doc))
    assert out == {"cuspidal": True, "sgroup_factors": False}
    assert len(signs_read) == 1


def test_schema_error_pointers():
    bad = json.loads(json.dumps(SUPPORT_DOC))
    bad["blocks"][0]["sign"] = 0
    with pytest.raises(SchemaError) as err:
        parse_input(bad)
    assert err.value.pointer == "/blocks/0/sign"

    with pytest.raises(SchemaError) as err:
        parse_input({"command": "support", "group": {"family": "Sp", "N": 6},
                     "blocks": [], "extra": 1})
    assert err.value.pointer == "/extra"

    with pytest.raises(SchemaError) as err:
        parse_input({"command": "support", "group": {"family": "Xp", "N": 6},
                     "blocks": []})
    assert err.value.pointer == "/group/family"

    with pytest.raises(SchemaError):
        parse_input({"command": "nope"})


def test_undefined_label_reference():
    doc = {"command": "support", "group": {"family": "Sp", "N": 6},
           "blocks": [{"pi": "ghost", "a": 2, "sign": 1}]}
    with pytest.raises(SchemaError) as err:
        parse_input(doc)
    assert err.value.pointer == "/blocks/0/pi"


def test_emit_round_trip_is_identity():
    out = run(parse_input(SUPPORT_DOC))
    text = emit(out)
    assert emit(json.loads(text)) == text
    compact = emit(out, compact=True)
    assert emit(json.loads(compact), compact=True) == compact


def assert_emits_as_json_dumps(doc, recorded: Optional[str] = None) -> None:
    """emit(doc) is the standard library's indented, key-sorted JSON (and the
    recorded text, if given).  A mismatch is reported at the first character
    where the texts part: pytest's own diff of two long texts takes minutes."""
    got = emit(doc)
    for want in (json.dumps(doc, sort_keys=True, indent=2), recorded):
        if want is not None and got != want:
            at = len(os.path.commonprefix([got, want]))
            pytest.fail(f"texts part at character {at}: "
                        f"{got[max(at - 30, 0):at + 30]!r} != {want[max(at - 30, 0):at + 30]!r}")


GOLDEN = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("job", [job for job in GOLDEN if "--json" not in job["argv"]],
                         ids=lambda job: job["name"])
def test_emit_matches_json_dumps_on_golden_outputs(job):
    for text in (job["stdout"], job["stderr"]):
        if text:
            assert_emits_as_json_dumps(json.loads(text), text.removesuffix("\n"))


def support_job(a: int, two_labels: bool) -> dict:
    """A `support` job with one block of size a, and a second label if asked."""
    family, small, q_size = ("Sp", 2, 1) if a % 2 == 0 else ("SOeven", 1, 2)
    blocks = [{"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": small, "sign": -1},
              {"pi": "p", "a": a, "sign": 1}]
    if two_labels:
        blocks.append({"pi": {"name": "q", "dim": 2, "type": "symplectic"}, "a": q_size, "sign": 1})
    size = small + a + (2 * q_size if two_labels else 0)
    return {"command": "support", "group": {"family": family, "N": size}, "blocks": blocks}


@pytest.mark.parametrize("two_labels", [False, True])
@pytest.mark.parametrize("a", [100, 401, 803])
def test_emit_matches_json_dumps_on_large_support_outputs(a, two_labels):
    out = run(parse_input(support_job(a, two_labels)))
    assert len(out["gl_twists"]) >= 48
    assert_emits_as_json_dumps(out)


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"a": {}, "b": [], "c": [{}], "d": [[]]},
    [[]],
    [[], ["x"]],
    [["x"], []],
    [["x", "y"], ["z"]],
    {"t": True, "f": False, "n": None, "list": [True, False, None]},
    {"big": 10**40, "small": -10**40, "zero": 0, "list": [10**40, -10**40]},
    {"quote\"key": "a \"quoted\" value", "back\\slash": "c:\\dir", "ctl\x01\n\t": "\x00\x1f\r"},
    {"\u03c0": "\u03c0", "\u00e9t\u00e9": ["\u00e9", "\U0001d11e"], "rows": [["\u03c0", "\U0001d11e"]]},
    {"tuple": (1, "a", (2, ())), "rows": (("x", "y"), ("z",))},
    {"mixed_rows": [("x", "y"), ["z"]], "tuple_rows": [("p", "3/2"), ("p", "1/2")]},
    [("x", 1), ("y",)],
    [("x",), ()],
    {"cusp_blocks": [["p", 2], ["p", 4]], "mixed": [["p", "3/2"], ["q", 1]]},
    {"float": 1.5, "list": [0.1, -2.0, 1e300]},
    {2: "two", 1: ["one"]},
    "text",
    7,
    None,
], ids=repr)
def test_emit_matches_json_dumps_on_edge_documents(doc):
    assert_emits_as_json_dumps(doc)


def test_run_is_deterministic():
    left = emit(run(parse_input(SUPPORT_DOC)))
    right = emit(run(parse_input(json.loads(json.dumps(SUPPORT_DOC)))))
    assert left == right


def test_validate_documents():
    out = run(parse_input({"command": "validate", "group": {"family": "Sp", "N": 4},
                           "partition": [3, 1]}))
    assert out["valid"] is False
    out = run(parse_input({"command": "validate", "group": {"family": "Sp", "N": 4},
                           "partition": [2, 2]}))
    assert out["valid"] and out["orbit_count"] == 1
    assert out["component_group"]["generators"] == ["z_2"]

    out = run(parse_input({
        "command": "validate", "group": {"family": "Sp", "N": 4},
        "blocks": [{"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": 2},
                   {"pi": "p", "a": 2}]}))
    assert out["valid"] is False  # repeated block


def test_springer_documents():
    out = run(parse_input({"command": "springer", "group": {"family": "Sp", "N": 6},
                           "partition": [4, 2], "signs": [1, -1]}))
    assert out["datum"]["d"] == 1 and out["datum"]["torus_rank"] == 2

    out = run(parse_input({"command": "springer", "group": {"family": "Oeven", "N": 4},
                           "partition": [2, 2], "signs": []}))
    assert out["case"] == "III" and out["weyl_rep"] == "induced"

    out = run(parse_input({
        "command": "springer",
        "factors": [{"partition": [3, 1], "signs": [1, -1]},
                    {"partition": [3, 1], "signs": [1, -1]}]}))
    assert out["c_levi"] == ["s1*s2"]


def test_reducibility_document():
    doc = {"command": "reducibility", "group": {"family": "Sp", "N": 6},
           "blocks": [{"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": 2},
                      {"pi": "p", "a": 4}],
           "pi": "p"}
    assert run(parse_input(doc)) == {"pi": "p", "x": "5/2"}


def test_reducibility_rejects_invalid_blocks(feed_stdin, capsys):
    # (p,3) twice, and an orthogonal label needs even sizes in Sp
    doc = {"command": "reducibility", "group": {"family": "Sp", "N": 6},
           "blocks": [{"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": 3},
                      {"pi": "p", "a": 3}],
           "pi": "p"}
    feed_stdin(json.dumps(doc))
    assert main(["reducibility", "--input", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "domain" and "repeated block (p,3)" in error["message"]


def test_bernstein_and_hecke_documents():
    doc = {"command": "bernstein", "group": {"family": "Sp", "N": 10},
           "gl_factors": [{"pi": {"name": "r", "dim": 1, "type": "orthogonal"},
                           "ell": 2}],
           "cusp_blocks": [{"pi": "r", "a": 2}, {"pi": "r", "a": 4}]}
    out = run(parse_input(doc))
    assert out["factors"] == [{"pi": "r", "type": "B", "rank": 2, "star": False}]
    assert out["torus_dim"] == 2 and out["n_sharp"] == 6

    doc = dict(doc, command="hecke", theta={"r": 1})
    out = run(parse_input(doc))
    assert out["factors"][0]["x_plus"] == "5/2"
    assert out["factors"][0]["mu_short"] == "5"


def test_enumerate_bound(monkeypatch):
    job = parse_input({"command": "enumerate", "group": {"family": "Sp", "N": 40}})
    from cusp_atlas.errors import BoundExceeded
    with pytest.raises(BoundExceeded):
        run(job, bound=10)


def test_over_cap_support_job_exits_3_at_once(feed_stdin, capsys):
    n = MAX_GROUP_SIZE + 2
    doc = dict(SUPPORT_DOC, group={"family": "Sp", "N": n},
               blocks=[{"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": n, "sign": 1}])
    feed_stdin(json.dumps(doc))
    start = time.perf_counter()
    assert main(["support", "--input", "-"]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "kind": "domain", "message": f"group size {n} exceeds the cap 1000000 on every job"}
    at_cap = dict(doc, group={"family": "Sp", "N": MAX_GROUP_SIZE},
                  blocks=[dict(doc["blocks"][0], a=MAX_GROUP_SIZE)])
    assert parse_input(at_cap).command == "support"


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - {"selfcheck"}))
def test_every_group_is_capped_before_the_rest_of_the_job(command):
    with pytest.raises(BoundExceeded):
        parse_input({"command": command, "group": {"family": "SOodd", "N": MAX_GROUP_SIZE + 1}})


def test_a_product_is_capped_on_its_total_size():
    def factors(*sizes):
        return {"command": "springer",
                "factors": [{"partition": [m], "signs": [1]} for m in sizes]}
    assert parse_input(factors(MAX_GROUP_SIZE - 3, 3)).command == "springer"
    with pytest.raises(BoundExceeded):
        parse_input(factors(MAX_GROUP_SIZE - 1, 3))


def test_main_exit_codes(tmp_path, capsys):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps(SUPPORT_DOC))
    assert main(["support", "--input", str(doc)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["levi"] == "GL_1^2 x Sp_2"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "support"}))
    assert main(["support", "--input", str(bad)]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({
        "command": "springer", "group": {"family": "Sp", "N": 4},
        "partition": [3, 1], "signs": []}))
    assert main(["springer", "--input", str(invalid)]) == 3


def test_main_selfcheck_quick(capsys):
    assert main(["selfcheck", "--bound", "6", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    # --bound caps every check, the cuspidal fixed points included
    checks = {c["name"]: c["detail"] for c in out["checks"]}
    assert checks["cuspidal-fixed-points"] == "4 cuspidal pairs fixed"
    assert checks["count-identity"] == "Sp_N census matches for even N <= 6"
    assert checks["so-count-identity"] == "SO_N census matches for N <= 6"


def test_command_mismatch_rejected():
    with pytest.raises(SchemaError):
        parse_input(SUPPORT_DOC, command="enumerate")
    job = parse_input(dict(SUPPORT_DOC), command="support")
    assert isinstance(job, JobSpec)


def test_bad_env_bound_is_a_schema_error(monkeypatch, feed_stdin, capsys):
    monkeypatch.setenv("CUSP_ATLAS_BOUND", "x")
    assert main(["selfcheck"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "schema" and "CUSP_ATLAS_BOUND" in error["message"]
    # an explicit --bound does not read the variable
    feed_stdin(json.dumps({"command": "enumerate", "group": {"family": "Sp", "N": 4}}))
    assert main(["enumerate", "--input", "-", "--bound", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["pairs"] == 7


def schema_error_of(capsys) -> dict:
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "schema"
    return error


@pytest.mark.parametrize("bound", ["-3", "0"])
def test_nonpositive_bound_is_a_schema_error(bound, capsys):
    # a bound below 1 would empty every selfcheck range and pass
    assert main(["selfcheck", "--bound", bound]) == 2
    assert bound in schema_error_of(capsys)["message"]


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_nonpositive_env_bound_is_a_schema_error(raw, monkeypatch, capsys):
    monkeypatch.setenv("CUSP_ATLAS_BOUND", raw)
    assert main(["selfcheck"]) == 2
    assert "CUSP_ATLAS_BOUND" in schema_error_of(capsys)["message"]


def test_nonpositive_check_bound_is_a_schema_error(feed_stdin, capsys):
    feed_stdin(json.dumps({"command": "selfcheck", "bounds": {"support": 4, "census": 0}}))
    assert main(["selfcheck", "--input", "-"]) == 2
    assert schema_error_of(capsys)["pointer"] == "/bounds/census"


def test_support_job_computes_the_support_twice(support_calls):
    # once on the input and once on its cuspidal part (idempotence); the
    # rendered support is the one the checks ran on
    out = run(parse_input(SUPPORT_DOC))
    assert len(support_calls) == 2
    assert out["cusp_blocks"] == [[label.name, a] for label, a in support_calls[1].blocks]


def test_support_job_reports_disagreeing_routes(lossy_psi_route, feed_stdin, capsys):
    feed_stdin(json.dumps(SUPPORT_DOC))
    assert main(["support", "--input", "-"]) == 0
    out = capsys.readouterr().out
    assert '"routes_agree": false' in out
    checks = json.loads(out)["checks"]
    assert all(ok for name, ok in checks.items() if name != "routes_agree")


SPRINGER_DOC = {"command": "springer", "group": {"family": "Sp", "N": 6},
                "partition": [4, 2], "signs": [1, 1]}
HECKE_DOC = {"command": "hecke", "group": {"family": "Sp", "N": 10},
             "gl_factors": [{"pi": {"name": "r", "dim": 1, "type": "orthogonal"}, "ell": 2}],
             "cusp_blocks": [{"pi": "r", "a": 2}, {"pi": "r", "a": 4}],
             "theta": {"r": 1}}


@pytest.mark.parametrize("value", [True, 1.0, -1.0])
@pytest.mark.parametrize("doc, path", [
    (SPRINGER_DOC, ("signs", 1)),
    (SUPPORT_DOC, ("blocks", 0, "sign")),
    (HECKE_DOC, ("theta", "r")),
], ids=["springer", "support", "hecke"])
def test_sign_must_be_an_integer(doc, path, value):
    # JSON true, 1.0 and -1.0 compare equal to +-1 but are no signs
    bad = json.loads(json.dumps(doc))
    inner = bad
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    with pytest.raises(SchemaError) as err:
        parse_input(bad)
    assert err.value.pointer == "/" + "/".join(map(str, path))
    assert err.value.message == "expected +1 or -1"


def test_theta_key_must_name_a_label():
    with pytest.raises(SchemaError) as err:
        parse_input(dict(HECKE_DOC, theta={"R": -1}))
    assert err.value.pointer == "/theta/R"
    assert err.value.message == "label 'R' has not been defined"


def test_unhashable_command_is_unknown():
    with pytest.raises(SchemaError) as err:
        parse_input({"command": []})
    assert (err.value.pointer, err.value.message) == ("/command", "unknown command []")


def write_bytes(path, data: bytes):
    path.write_bytes(data)
    return path


def stdin_bytes(feed, data: bytes) -> str:
    feed(data)
    return "-"


@pytest.mark.parametrize("make, words", [
    (lambda tmp, feed: tmp / "missing.json", "No such file"),
    (lambda tmp, feed: tmp, "Is a directory"),
    (lambda tmp, feed: write_bytes(tmp / "latin1.json", b"\xff{}"), "not UTF-8"),
    (lambda tmp, feed: stdin_bytes(feed, b'{"name": "\xff"}'), "not UTF-8"),
    (lambda tmp, feed: write_bytes(tmp / "deep.json", b"[" * 200000), "not valid JSON"),
], ids=["missing", "directory", "not-utf8", "stdin-not-utf8", "too-deep"])
def test_unreadable_input_is_a_schema_error(make, words, tmp_path, feed_stdin, capsys):
    path = make(tmp_path, feed_stdin)
    assert main(["validate", "--input", str(path)]) == 2
    error = schema_error_of(capsys)
    assert error["pointer"] == "/" and words in error["message"]
    if words != "not valid JSON":
        assert str(path) in error["message"]


@pytest.mark.parametrize("doc", [
    {"command": "springer", "group": {"family": "Oeven", "N": 0}, "partition": [], "signs": []},
    {"command": "springer", "factors": [{"partition": [3, 1], "signs": [1, -1]},
                                        {"partition": [], "signs": []}]},
], ids=["single", "product"])
def test_springer_on_o0_is_a_domain_error(doc, feed_stdin, capsys):
    # O_0 has no det = -1 class, so no case of the O_N correspondence applies
    feed_stdin(json.dumps(doc))
    assert main(["springer", "--input", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["kind"] == "domain" and "O_0" in error["message"]


@pytest.mark.parametrize("family", ["Oeven", "Oodd"])
def test_springer_on_o_checks_the_partition_against_the_group(family, feed_stdin, capsys):
    # the partition is checked against the job's O_N, not against O_(its total)
    n = 16 if family == "Oeven" else 9
    doc = {"command": "springer", "group": {"family": family, "N": n},
           "partition": [3, 1], "signs": [1, 1]}
    feed_stdin(json.dumps(doc))
    assert main(["springer", "--input", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == {
        "kind": "domain",
        "message": f"(3,1) is not a {family}_{n} partition: parts sum to 4, expected {n}"}


@pytest.mark.parametrize("doc", [
    {"command": "springer", "group": {"family": "Sp", "N": 6}, "partition": [4, 2],
     "signs": [1, -1]},
    {"command": "springer", "group": {"family": "Oodd", "N": 9}, "partition": [5, 3, 1],
     "signs": [-1, -1, 1]},
    {"command": "springer", "factors": [{"partition": [3, 1], "signs": [1, -1]},
                                        {"partition": [2, 2, 1, 1], "signs": [-1]}]},
], ids=["datum", "o", "product"])
def test_springer_job_reads_no_character(doc, signs_read):
    # the job's sign list goes to the springer maps as the tuple it is parsed into
    run(parse_input(doc))
    assert signs_read == []


@pytest.mark.parametrize("key, pointer", [("a/b", "/a~1b"), ("m~1", "/m~01"), ("~/", "/~0~1")])
def test_unknown_field_pointer_is_escaped(key, pointer, feed_stdin, capsys):
    doc = {"command": "enumerate", "group": {"family": "Sp", "N": 4}, key: 1}
    feed_stdin(json.dumps(doc))
    assert main(["enumerate", "--input", "-"]) == 2
    error = schema_error_of(capsys)
    assert (error["pointer"], error["message"]) == (pointer, "unknown field")


def test_theta_key_pointer_is_escaped():
    with pytest.raises(SchemaError) as err:
        parse_input(dict(HECKE_DOC, theta={"r/x": 1}))
    assert err.value.pointer == "/theta/r~1x"
    assert err.value.message == "label 'r/x' has not been defined"
    with pytest.raises(SchemaError) as err:
        parse_input(dict(HECKE_DOC, theta={"r~x": 0}))
    assert (err.value.pointer, err.value.message) == ("/theta/r~0x", "expected +1 or -1")


VALIDATE_DOC = {"command": "validate", "group": {"family": "Sp", "N": 4}, "partition": [2, 2]}
PRODUCT_DOC = {"command": "springer", "factors": [{"partition": [3, 1], "signs": [1, -1]}]}
BOUND_NAMES = ("defect", "orders", "support", "census", "cuspidal")


def with_value(doc, path, value):
    """A deep copy of doc with the member at path replaced by value."""
    bad = json.loads(json.dumps(doc))
    inner = bad
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return bad


@pytest.mark.parametrize("doc, path, value, pointer, message", [
    (VALIDATE_DOC, ("partition",), 5, "/partition", "expected a list"),
    (VALIDATE_DOC, ("partition", 0), "2", "/partition/0", "expected an integer"),
    (VALIDATE_DOC, ("partition", 1), 0, "/partition/1", "parts are positive integers"),
    (SUPPORT_DOC, ("blocks",), {}, "/blocks", "expected a list"),
    (SUPPORT_DOC, ("blocks", 0, "a"), 0, "/blocks/0/a", "expected a positive integer"),
    (SUPPORT_DOC, ("blocks", 0, "a"), 2.0, "/blocks/0/a", "expected an integer"),
    (SUPPORT_DOC, ("blocks", 0, "pi", "dim"), 0, "/blocks/0/pi/dim",
     "expected a positive integer"),
    (HECKE_DOC, ("cusp_blocks",), 1, "/cusp_blocks", "expected a list"),
    (HECKE_DOC, ("cusp_blocks", 1, "a"), -4, "/cusp_blocks/1/a", "expected a positive integer"),
    (HECKE_DOC, ("gl_factors",), "r", "/gl_factors", "expected a list"),
    (HECKE_DOC, ("gl_factors", 0, "pi", "dim"), -1, "/gl_factors/0/pi/dim",
     "expected a positive integer"),
    (HECKE_DOC, ("gl_factors", 0, "ell"), -1, "/gl_factors/0",
     "a factor exponent must be nonnegative"),
    (PRODUCT_DOC, ("factors",), 3, "/factors", "expected a list"),
    (PRODUCT_DOC, ("factors", 0, "partition", 1), -1, "/factors/0/partition/1",
     "parts are positive integers"),
] + [({"command": "selfcheck", "bounds": {"support": 4}}, ("bounds", name), 0,
      f"/bounds/{name}", "expected a positive integer") for name in BOUND_NAMES] + [
    (SPRINGER_DOC, ("signs",), 1, "/signs", "expected a list of +1/-1"),
    ({"command": "bernstein", "group": {"family": "Sp", "N": 4}, "gl_factors": [],
      "cusp_blocks": []}, ("cusp_blocks",),
     [{"pi": {"name": "r", "dim": 1, "type": "orthogonal"}, "a": 1}], "/cusp_blocks",
     "Sp requires an even size, got 1"),
    (SUPPORT_DOC, ("blocks", 0, "pi", "type"), "orthgonal", "/blocks/0/pi/type",
     "unknown type 'orthgonal'"),
    (SUPPORT_DOC, ("blocks", 0, "pi", "type"), "ORTHOGONAL", "/blocks/0/pi/type",
     "unknown type 'ORTHOGONAL'"),
    (HECKE_DOC, ("gl_factors", 0, "pi", "type"), "gl_pair", "/gl_factors/0/pi/type",
     "unknown type 'gl_pair'"),
    (SUPPORT_DOC, ("group", "family"), "sp", "/group/family", "unknown family 'sp'"),
])
def test_single_fault_pointer_and_message(doc, path, value, pointer, message):
    with pytest.raises(SchemaError) as err:
        parse_input(with_value(doc, path, value))
    assert (err.value.pointer, err.value.message) == (pointer, message)


def test_selfcheck_bounds_report_the_first_field_first():
    doc = {"command": "selfcheck", "bounds": dict.fromkeys(reversed(BOUND_NAMES), 0)}
    with pytest.raises(SchemaError) as err:
        parse_input(doc)
    assert err.value.pointer == "/bounds/defect"
    with pytest.raises(SchemaError) as err:
        parse_input({"command": "selfcheck", "bounds": {"orders": 3, "checks": 3}})
    assert (err.value.pointer, err.value.message) == ("/bounds/checks", "unknown field")


@pytest.fixture
def child_calls(monkeypatch) -> list:
    """The tokens `cli._child` is called on, in order."""
    calls = []
    child = cli._child
    monkeypatch.setattr(cli, "_child", lambda pointer, token: calls.append(token) or
                        child(pointer, token))
    return calls


def test_list_elements_get_their_pointers_without_escaping(child_calls):
    # a pointer is written only while an error propagates, so a valid job
    # calls _child not at all; a bad element still names its index
    ones = {"command": "validate", "group": {"family": "Sp", "N": 1000}, "partition": [1] * 1000}
    odd = list(range(1, 40, 2))
    signs = {"command": "springer", "group": {"family": "SOeven", "N": sum(odd)},
             "partition": odd, "signs": [1, -1] * 10}
    for doc in (ones, signs):
        parse_input(doc)
    assert child_calls == []
    for doc, path, pointer in ((ones, ("partition", 737), "/partition/737"),
                               (signs, ("signs", 13), "/signs/13")):
        with pytest.raises(SchemaError) as err:
            parse_input(with_value(doc, path, 0))
        assert err.value.pointer == pointer


def test_golden_jobs_that_succeed_write_no_pointer(child_calls):
    jobs = [job for job in GOLDEN if job["exit"] == 0 and job["stdin"]]
    assert len(jobs) > 50
    for job in jobs:
        parse_input(json.loads(job["stdin"]), job["argv"][0])
    assert child_calls == []


CLI = [sys.executable, "-m", "cusp_atlas.cli"]


def cli_env(**extra) -> dict:
    """The environment of a CLI process that imports this package, plus ``extra``."""
    src = str(Path(cusp_atlas.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


NON_ASCII = next(job for job in GOLDEN if job["name"] == "support-non-ascii-label")
RAW_UTF8 = json.dumps(json.loads(NON_ASCII["stdin"]), ensure_ascii=False).encode("utf-8")


@pytest.mark.parametrize("env", [{"PYTHONUTF8": "0", "LC_ALL": "C"},
                                 {"PYTHONIOENCODING": "latin-1"}], ids=["c-locale", "latin-1"])
def test_raw_utf8_on_stdin_reads_as_utf8_whatever_the_locale(env):
    assert any(byte > 127 for byte in RAW_UTF8)
    proc = subprocess.run(CLI + NON_ASCII["argv"], input=RAW_UTF8, capture_output=True,
                          env=cli_env(**env), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, NON_ASCII["stdout"].encode(), b"")


def test_raw_utf8_in_a_file_reads_as_on_stdin(tmp_path):
    job = write_bytes(tmp_path / "job.json", RAW_UTF8)
    argv = [str(job) if arg == "-" else arg for arg in NON_ASCII["argv"]]
    proc = subprocess.run(CLI + argv, capture_output=True,
                          env=cli_env(PYTHONUTF8="0", LC_ALL="C"), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, NON_ASCII["stdout"].encode(), b"")


def test_closed_stdin_is_a_schema_error():
    # the child starts with file descriptor 0 closed, as after `<&-` in a shell
    proc = subprocess.run(CLI + ["validate", "--input", "-"], capture_output=True,
                          preexec_fn=lambda: os.close(0), env=cli_env(), timeout=60)
    assert proc.returncode == 2 and b"Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == {
        "kind": "schema", "pointer": "/",
        "message": "cannot read input '-': standard input is closed"}


def test_closed_stdout_ends_the_job_quietly(tmp_path):
    # the output of an a = 20000 job is far above a pipe buffer, so the job
    # is still writing when the reader goes away
    n = 20000
    job = tmp_path / "big.json"
    job.write_text(json.dumps(dict(SUPPORT_DOC, group={"family": "Sp", "N": n}, blocks=[
        {"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": n, "sign": 1}])))
    proc = subprocess.Popen(CLI + ["support", "--input", str(job)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    assert len(proc.stdout.read(20)) == 20
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (stderr, proc.wait(timeout=60)) == (b"", 0)


def test_enumerate_over_the_cap_exits_3_before_any_census_work(monkeypatch):
    def no_census(kind):
        raise AssertionError(f"census of {kind} ran")
    monkeypatch.setattr(census, "unipotent_census", no_census)
    def job(n):
        return parse_input({"command": "enumerate", "group": {"family": "Sp", "N": n}})
    with pytest.raises(BoundExceeded, match=f"size {MAX_CENSUS_SIZE + 2} exceeds the cap"):
        run(job(MAX_CENSUS_SIZE + 2), bound=100)
    # at the cap the job goes on to the census
    with pytest.raises(AssertionError, match="census of Sp_"):
        run(job(MAX_CENSUS_SIZE), bound=100)


@pytest.mark.parametrize("name", BOUND_NAMES)
def test_selfcheck_range_over_the_cap_exits_3_before_any_check(name, monkeypatch):
    monkeypatch.setattr(verifications, "run_all", lambda limits: [])
    over = parse_input({"command": "selfcheck", "bounds": {name: MAX_CENSUS_SIZE + 1}})
    with pytest.raises(BoundExceeded, match=f"{name} range {MAX_CENSUS_SIZE + 1} exceeds the cap"):
        run(over, bound=100)
    at_cap = parse_input({"command": "selfcheck",
                          "bounds": dict.fromkeys(BOUND_NAMES, MAX_CENSUS_SIZE)})
    assert run(at_cap, bound=100) == {"ok": True, "checks": []}


def test_env_bound_caps_selfcheck_as_the_option_does(monkeypatch, capsys):
    monkeypatch.delenv(ENV_BOUND, raising=False)
    outputs = {}
    for bound in ("6", "8"):
        assert main(["selfcheck", "--bound", bound, "--json"]) == 0
        outputs[bound] = capsys.readouterr().out
    assert outputs["6"] != outputs["8"]
    monkeypatch.setenv(ENV_BOUND, "6")
    assert main(["selfcheck", "--json"]) == 0
    assert capsys.readouterr().out == outputs["6"]
    # an explicit --bound wins over the variable
    assert main(["selfcheck", "--bound", "8", "--json"]) == 0
    assert capsys.readouterr().out == outputs["8"]


def test_invariant_failure_in_a_runner_exits_4(monkeypatch, feed_stdin, capsys):
    def broken(param, eta):
        raise InternalCheckError("planted invariant failure")
    monkeypatch.setattr(cli, "check_support", broken)
    feed_stdin(json.dumps(SUPPORT_DOC))
    assert main(["support", "--input", "-"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {"kind": "invariant", "message": "planted invariant failure"}}


def test_failing_selfcheck_check_exits_4_with_its_document(monkeypatch, capsys):
    monkeypatch.setattr(verifications, "check_count_identity",
                        lambda limit: (False, "planted failure"))
    assert main(["selfcheck", "--bound", "6", "--json"]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert out["ok"] is False
    assert {c["name"]: (c["status"], c["detail"]) for c in out["checks"]}["count-identity"] == (
        "fail", "planted failure")
    assert [c["status"] for c in out["checks"]].count("fail") == 1


def test_input_without_command_runs_the_command_on_argv(tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"group": {"family": "Sp", "N": 4}}))
    assert main(["enumerate", "--input", str(job), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"pairs": 7, "by_triple": {"d=0": 5, "d=1": 2}}
