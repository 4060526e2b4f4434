"""Command-line front end: JSON jobs in, deterministic JSON documents out.

The commands live in ``COMMANDS``, one ``(parse, run)`` entry each: the
parser turns a job document into a payload, the runner turns the payload and
the bound into the output document.  A job is a JSON object carrying
"command" plus the payload fields of that command; unknown fields are
rejected with a JSON-pointer path.  Half-integers are serialized as exact
fraction strings, never floats.  Every document, the error documents on
standard error included, is written byte for byte as
``json.dumps(doc, sort_keys=True, indent=2)`` writes it: ASCII only, keys
sorted, a two-space indent.  ``--json`` writes the same document compactly on
one line.  So identical jobs produce byte-identical output.

Exit codes: 0 success, 2 schema error, 3 domain error (a group size N above
``MAX_GROUP_SIZE`` among them, refused as the job is parsed, and an `enumerate`
size or `selfcheck` range above ``MAX_CENSUS_SIZE``), 4 invariant failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _ascii
from typing import Any, Optional

from . import census, verifications
from .bernstein import GLFactor, InertialTriple, RootType, hecke_parameters, weyl_descriptor
from .cuspsupport import SUPPORT_CHECKS, check_support
from .errors import (
    BoundExceeded,
    CuspAtlasError,
    InternalCheckError,
    SchemaError,
)
from .lparams import (
    DiscreteParameter,
    IrrLabel,
    half_str,
    is_cuspidal,
    reducibility_point,
    sgroup_factors,
    signed_slices,
    validate_parameter,
)
from .orbits import (
    Family,
    GroupKind,
    Partition,
    SignCharacter,
    component_group,
    is_distinguished,
    orbit_count,
    validate_partition,
)
from .springer import OCase, ProductFactor, springer_datum, springer_o, springer_product

ENV_BOUND = "CUSP_ATLAS_BOUND"
DEFAULT_BOUND = 24
# Largest group size N a job may name.  A one-block `support` job takes
# 0.27-0.36 s and 31 MB at N = 10**5 and 1.1-1.45 s and 163 MB at the cap in a
# cold process on a 2-vCPU host whose speed drifts; most of that time goes
# into building and writing the output document.
MAX_GROUP_SIZE = 10**6
# Largest `enumerate` size and `selfcheck` range, whatever the bound.  In a
# cold process on a 2-vCPU host whose speed drifts, `enumerate` of Sp_32 takes
# 0.19-0.31 s and `selfcheck` with every range at 32 takes 2.0-2.4 s (building
# and rejecting the invalid partitions of 32 too, run alternately: 0.31-0.36 s
# and 2.0-2.8 s); the Sp count identity takes 0.34-0.40 s at 36 in-process.
MAX_CENSUS_SIZE = 32


@dataclasses.dataclass(frozen=True)
class JobSpec:
    command: str
    payload: Any


# -- schema helpers ----------------------------------------------------------

def _child(pointer: str, token) -> str:
    """The JSON pointer of member ``token`` below ``pointer`` (RFC 6901)."""
    return f"{pointer}/" + str(token).replace("~", "~0").replace("/", "~1")


def _expect_object(doc, pointer: str, required: dict, optional: dict = {}) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(pointer or "/", "expected an object")
    out = {}
    for key, checker in required.items():
        if key not in doc:
            raise SchemaError(_child(pointer, key), "missing required field")
        out[key] = checker(doc[key], _child(pointer, key))
    for key, checker in optional.items():
        if key in doc:
            out[key] = checker(doc[key], _child(pointer, key))
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        key = sorted(unknown)[0]
        raise SchemaError(_child(pointer, key), "unknown field")
    return out


def _int(value, pointer: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(pointer, "expected an integer")
    return value


def _positive_int(value, pointer: str) -> int:
    if _int(value, pointer) < 1:
        raise SchemaError(pointer, "expected a positive integer")
    return value


def _string(value, pointer: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(pointer, "expected a string")
    return value


def _sign(value, pointer: str) -> int:
    if type(value) is not int or value not in (1, -1):
        raise SchemaError(pointer, "expected +1 or -1")
    return value


def _list(value, pointer: str, item) -> list:
    """``item(element, pointer)`` over the elements of a JSON list.

    An index is decimal digits, which RFC 6901 never escapes, so its pointer
    needs no :func:`_child`.
    """
    if not isinstance(value, list):
        raise SchemaError(pointer, "expected a list")
    return [item(x, f"{pointer}/{i}") for i, x in enumerate(value)]


def _capped(n: int) -> None:
    if n > MAX_GROUP_SIZE:
        raise BoundExceeded(f"group size {n} exceeds the cap {MAX_GROUP_SIZE} on every job")


def _census_capped(n: int, what: str) -> None:
    if n > MAX_CENSUS_SIZE:
        raise BoundExceeded(
            f"{what} {n} exceeds the cap {MAX_CENSUS_SIZE} on enumerate and selfcheck")


def _group(value, pointer: str) -> GroupKind:
    fields = _expect_object(value, pointer, {"family": _string, "N": _int})
    try:
        family = Family(fields["family"])
    except ValueError:
        raise SchemaError(_child(pointer, "family"),
                          f"unknown family {fields['family']!r}") from None
    _capped(fields["N"])
    try:
        return GroupKind(family, fields["N"])
    except ValueError as exc:
        raise SchemaError(_child(pointer, "N"), str(exc)) from None


class _LabelRegistry:
    def __init__(self):
        self.by_name: dict[str, IrrLabel] = {}

    def resolve(self, value, pointer: str) -> IrrLabel:
        if isinstance(value, str):
            if value not in self.by_name:
                raise SchemaError(pointer, f"label {value!r} has not been defined")
            return self.by_name[value]
        fields = _expect_object(value, pointer,
                                {"name": _string, "dim": _positive_int, "type": _string})
        try:  # the name is a str and the dimension positive: only the type can fail
            label = IrrLabel(fields["name"], fields["dim"], fields["type"])
        except ValueError:
            raise SchemaError(_child(pointer, "type"),
                              f"unknown type {fields['type']!r}") from None
        prior = self.by_name.setdefault(label.name, label)
        if prior != label:
            raise SchemaError(pointer, f"label {label.name!r} redefined with new data")
        return label


def _blocks(value, pointer: str, registry: _LabelRegistry, with_signs: bool):
    spec = {"pi": registry.resolve, "a": _positive_int}
    if with_signs:
        spec["sign"] = _sign
    items = _list(value, pointer, lambda item, here: _expect_object(item, here, spec))
    blocks = [(fields["pi"], fields["a"]) for fields in items]
    if not with_signs:
        return blocks, {}
    return blocks, {(fields["pi"].name, fields["a"]): fields["sign"] for fields in items}


def _part(value, pointer: str) -> int:
    if _int(value, pointer) < 1:
        raise SchemaError(pointer, "parts are positive integers")
    return value


def _partition(value, pointer: str) -> Partition:
    return Partition(_list(value, pointer, _part))


def _signs_for(parts: tuple[int, ...], value, pointer: str) -> tuple[int, ...]:
    raw = value if isinstance(value, list) else None
    if raw is None:
        raise SchemaError(pointer, "expected a list of +1/-1")
    if len(raw) != len(parts):
        raise SchemaError(pointer, f"expected {len(parts)} signs for generators {list(parts)}")
    return tuple(_sign(s, f"{pointer}/{i}") for i, s in enumerate(raw))


# -- payload parsing ---------------------------------------------------------
#
# Each parser takes the job document without its "command" field.

def _parse_orbit_payload(doc, with_signs: bool):
    spec = {"group": _group, "partition": _partition}
    if with_signs:
        spec["signs"] = lambda v, p: v  # validated against the group below
    fields = _expect_object(doc, "", spec)
    kind, p = fields["group"], fields["partition"]
    if not with_signs:
        return kind, p
    parity = kind.generator_parity
    gens = p.distinct_parts_of_parity(parity) if parity is not None else ()
    return kind, p, _signs_for(gens, fields["signs"], "/signs")


def _parse_parameter_payload(doc, with_signs: bool):
    registry = _LabelRegistry()
    fields = _expect_object(
        doc, "",
        {"group": _group, "blocks": lambda v, p: _blocks(v, p, registry, with_signs)})
    blocks, signs = fields["blocks"]
    if not with_signs:
        return fields["group"], blocks
    return fields["group"], blocks, SignCharacter(signs)


def _parse_validate(doc):
    if "partition" in doc:
        return _parse_orbit_payload(doc, with_signs=False)
    return _parse_parameter_payload(doc, with_signs=False)


def _parse_springer(doc):
    if "factors" in doc:
        return _expect_object(doc, "", {"factors": _product_factors})["factors"]
    return _parse_orbit_payload(doc, with_signs=True)


def _product_factor(value, pointer) -> ProductFactor:
    fields = _expect_object(value, pointer, {"partition": _partition, "signs": lambda v, p: v})
    p = fields["partition"]
    return ProductFactor(p, _signs_for(p.distinct_parts_of_parity(1), fields["signs"],
                                       _child(pointer, "signs")))


def _product_factors(value, pointer):
    out = _list(value, pointer, _product_factor)
    _capped(sum(f.partition.total for f in out))
    return out


def _parse_reducibility(doc):
    registry = _LabelRegistry()
    fields = _expect_object(
        doc, "",
        {"group": _group,
         "blocks": lambda v, p: _blocks(v, p, registry, with_signs=False),
         "pi": registry.resolve})
    blocks, _ = fields["blocks"]
    return fields["group"], blocks, fields["pi"]


def _parse_triple(doc, with_theta: bool):
    registry = _LabelRegistry()

    def factor(value, pointer) -> GLFactor:
        fields = _expect_object(value, pointer, {"pi": registry.resolve, "ell": _int},
                                {"torsion": _int, "partner_mprime": _int})
        try:
            return GLFactor(fields["pi"], fields["ell"], fields.get("torsion", 1),
                            fields.get("partner_mprime", 0))
        except ValueError as exc:
            raise SchemaError(pointer, str(exc)) from None

    spec = {"group": _group, "gl_factors": lambda v, p: _list(v, p, factor),
            "cusp_blocks": lambda v, p: _blocks(v, p, registry, with_signs=False)}
    fields = _expect_object(doc, "", spec, {"theta": _theta} if with_theta else {})
    blocks, _ = fields["cusp_blocks"]
    n_sharp = sum(label.dim * a for label, a in blocks)
    try:
        sharp_kind = GroupKind(fields["group"].family, n_sharp)
    except ValueError as exc:
        raise SchemaError("/cusp_blocks", str(exc)) from None
    cusp = DiscreteParameter(sharp_kind, blocks)
    triple = InertialTriple(fields["group"], fields["gl_factors"], cusp)
    theta = fields.get("theta", {})
    for name in theta:
        registry.resolve(name, _child("/theta", name))
    return triple, theta


def _theta(value, pointer):
    if not isinstance(value, dict):
        raise SchemaError(pointer, "expected an object of label -> +1/-1")
    return {name: _sign(sign, _child(pointer, name)) for name, sign in value.items()}


def _parse_selfcheck(doc):
    return _expect_object(doc, "", {}, {"bounds": _selfcheck_bounds}).get("bounds", {})


def _selfcheck_bounds(value, pointer):
    allowed = {f.name: _positive_int for f in dataclasses.fields(verifications.Limits)}
    return _expect_object(value, pointer, {}, allowed)


# -- output rendering --------------------------------------------------------

def _half_or_null(two_x: Optional[int]) -> Optional[str]:
    return None if two_x is None else half_str(two_x)


def _render_char(eta: SignCharacter) -> list:
    """A parameter-level character: [[label name, a], sign] per block."""
    return [[list(k), s] for k, s in eta.values]


def _render_signs(datum) -> list:
    """A cuspidal datum's character: [part, sign] per part, increasing."""
    return [[q, s] for q, s in zip(datum.cusp_partition.increasing(), datum.cusp_signs)]


# the p-adic group of each classical dual: its family and the shift of N
_P_ADIC = {Family.SP: ("SO", 1), Family.SO_ODD: ("Sp", -1), Family.SO_EVEN: ("SO", 0)}


def _p_adic_name(kind: GroupKind) -> str:
    family, shift = _P_ADIC[kind.family]
    return f"{family}_{kind.size + shift}(F)"


def _group_json(kind: GroupKind) -> dict:
    return {"family": kind.family.value, "N": kind.size}


def _render_datum(datum) -> dict:
    return {
        "torus_rank": datum.torus_rank,
        "cusp_partition": list(datum.cusp_partition.parts),
        "cusp_character": _render_signs(datum),
        "d": datum.d,
        "dprime": datum.dprime,
        "levi": datum.levi_str(),
    }


# -- runners -----------------------------------------------------------------
#
# Each runner takes the payload of its parser and the bound.

def _run_validate(payload, bound: int) -> dict:
    kind, p = payload
    if not isinstance(p, Partition):  # the blocks of a parameter
        verdict = validate_parameter(kind, p)
        return {"valid": verdict.valid, "problems": list(verdict.problems)}
    verdict = validate_partition(kind, p)
    doc = {"valid": verdict.valid, "problems": list(verdict.problems)}
    orbit = verdict.orbit
    if orbit is not None:
        doc["orbit_count"] = orbit_count(orbit)
        desc = component_group(orbit)
        doc["component_group"] = {
            "generators": list(desc.labels()),
            "relation": desc.relation.value,
            "order": desc.order,
        }
        doc["distinguished"] = is_distinguished(orbit)
    return doc


# the Weyl-group representation of each O_N case
_WEYL_REP = {OCase.I: "base", OCase.II: "extended", OCase.III: "induced"}


def _quasi_levi(datum) -> str:
    """(C*)^r x O_{d^2} of an O_N datum, a trivial factor left out (O_0 is refused)."""
    factors = (f"(C*)^{datum.torus_rank}" if datum.torus_rank else "",
               f"O_{datum.d * datum.d}" if datum.d else "")
    return " x ".join(filter(None, factors))


def _run_springer(payload, bound: int) -> dict:
    if isinstance(payload, list):
        datum = springer_product(payload)
        subs = datum.factor_data
        return {
            "blocks": {f"case_{case.value}": [i for i, sub in enumerate(subs) if sub.case is case]
                       for case in OCase},
            "c_levi": list(datum.generator_labels(datum.c_levi)),
            "c_orbit": list(datum.generator_labels(datum.c_orbit)),
            "c_induction": list(datum.generator_labels(datum.c_induction)),
            "chi_levi": list(datum.chi_levi),
            "chi_orbit": list(datum.chi_orbit),
            "quasi_levi": [_quasi_levi(sub.datum) for sub in subs],
            "cusp_data": [_render_datum(sub.datum) for sub in subs],
            "weyl_rep": {"extended": bool(datum.c_orbit), "induced": bool(datum.c_induction)},
        }
    kind, p, signs = payload
    if kind.is_full_orthogonal:
        out = springer_o(kind, p, signs)
        return {
            "case": out.case.value,
            "quasi_levi": _quasi_levi(out.datum),
            "datum": _render_datum(out.datum),
            "weyl_rep": _WEYL_REP[out.case],
            "chi": out.chi,
            "cusp_character_o": _render_signs(out.datum) if out.case is OCase.I else None,
            "fused_orbits": ["I", "II"] if out.case is OCase.III else [],
        }
    datum = springer_datum(kind, p, signs)
    return {"group": _group_json(kind), "datum": _render_datum(datum)}


def _run_support(payload, bound: int) -> dict:
    kind, blocks, eta = payload
    param = DiscreteParameter(kind, blocks)
    report = check_support(param, eta)
    sup = report.support
    twists = []
    for label, hi, lo, n in sup.gl_twists.runs():  # top down, so no sort
        texts = map(half_str, range(hi, lo - 2, -2))
        if n > 1:
            texts = chain.from_iterable(map(repeat, texts, repeat(n)))
        # tuples of strings leave the cyclic collector's care after one pass;
        # json.dumps and _write both write them as lists
        twists.extend(zip(repeat(label.name), texts))
    return {
        "levi": sup.levi,
        "gl_twists": twists,
        "cusp_blocks": [[label.name, a] for label, a in sup.cusp_param.blocks],
        "cusp_char": _render_char(sup.cusp_char),
        "cusp_group": _group_json(sup.cusp_param.dual_group),
        "checks": {name: getattr(report, name) for name in SUPPORT_CHECKS},
        "group": _group_json(param.dual_group),
        "p_adic_group": _p_adic_name(param.dual_group),
    }


def _run_cuspidal_test(payload, bound: int) -> dict:
    kind, blocks, eta = payload
    param = DiscreteParameter(kind, blocks)
    slices = signed_slices(param, eta)
    return {
        "cuspidal": is_cuspidal(param, eta, slices=slices),
        "sgroup_factors": sgroup_factors(param, eta, slices=slices),
    }


def _run_reducibility(payload, bound: int) -> dict:
    kind, blocks, label = payload
    two_x = reducibility_point(label, DiscreteParameter(kind, blocks).blocks, kind)
    return {"pi": label.name, "x": half_str(two_x)}


def _run_bernstein(payload, bound: int) -> dict:
    triple, _ = payload
    descriptor = weyl_descriptor(triple)
    return {
        "factors": [{"pi": w.label.name, "type": w.root_type.value, "rank": w.rank,
                     "star": w.root_type is RootType.D} for w in descriptor.factors],
        "r_group": {"case": descriptor.r_group.case,
                    "generators": list(descriptor.r_group.generators),
                    "order": descriptor.r_group.order},
        "torus_dim": sum(f.ell for f in triple.gl_factors),
        "torsions": [[f.label.name, f.ell, f.torsion] for f in triple.gl_factors],
        "n_sharp": triple.n_sharp,
    }


def _run_hecke(payload, bound: int) -> dict:
    triple, theta = payload
    return {"factors": [{
        "pi": f.weyl.label.name,
        "type": f.weyl.root_type.value,
        "rank": f.weyl.rank,
        "x_plus": _half_or_null(f.x_plus),
        "x_minus": _half_or_null(f.x_minus),
        "lambda": _half_or_null(f.lam),
        "lambda_star": _half_or_null(f.lam_star),
        "mu_short": _half_or_null(f.mu_short),
        "mu_other": f.mu_other,
    } for f in hecke_parameters(triple, theta)]}


def _run_enumerate(kind: GroupKind, bound: int) -> dict:
    if kind.size > bound:
        raise BoundExceeded(f"size {kind.size} exceeds the bound {bound}")
    _census_capped(kind.size, "size")
    table = census.unipotent_census(kind)
    return {"pairs": table["pairs"],
            "by_triple": {f"d={d}": n for d, n in table["by_d"].items()}}


def _run_selfcheck(bounds: dict, bound: int) -> dict:
    limits = verifications.selfcheck_limits(bounds, bound)
    for field in dataclasses.fields(limits):
        _census_capped(getattr(limits, field.name), f"{field.name} range")
    results = verifications.run_all(limits)
    checks = [{"name": name, "status": "pass" if ok else "fail", "detail": detail}
              for name, ok, detail in results]
    return {"ok": all(c["status"] == "pass" for c in checks), "checks": checks}


COMMANDS = {
    "validate": (_parse_validate, _run_validate),
    "springer": (_parse_springer, _run_springer),
    "support": (lambda doc: _parse_parameter_payload(doc, with_signs=True), _run_support),
    "cuspidal-test": (lambda doc: _parse_parameter_payload(doc, with_signs=True),
                      _run_cuspidal_test),
    "reducibility": (_parse_reducibility, _run_reducibility),
    "bernstein": (lambda doc: _parse_triple(doc, with_theta=False), _run_bernstein),
    "hecke": (lambda doc: _parse_triple(doc, with_theta=True), _run_hecke),
    "enumerate": (lambda doc: _expect_object(doc, "", {"group": _group})["group"], _run_enumerate),
    "selfcheck": (_parse_selfcheck, _run_selfcheck),
}


def parse_input(document, command: Optional[str] = None) -> JobSpec:
    """Validate a job document into a typed JobSpec.

    When ``command`` is given (from the command line) the document may omit
    its "command" field; if both are present they must agree.
    """
    if not isinstance(document, dict):
        raise SchemaError("/", "expected an object")
    doc = dict(document)
    declared = doc.pop("command", None)
    if declared is None:
        if command is None:
            raise SchemaError("/command", "missing required field")
        declared = command
    elif command is not None and declared != command:
        raise SchemaError("/command", f"document says {declared!r}, requested {command!r}")
    if not isinstance(declared, str) or declared not in COMMANDS:
        raise SchemaError("/command", f"unknown command {declared!r}")
    return JobSpec(declared, COMMANDS[declared][0](doc))


def _env_bound() -> int:
    raw = os.environ.get(ENV_BOUND)
    if raw is None:
        return DEFAULT_BOUND
    try:
        bound = int(raw)
    except ValueError:
        bound = None
    if bound is None or bound < 1:
        raise SchemaError("/", f"environment variable {ENV_BOUND} must be a positive integer, "
                               f"got {raw!r}")
    return bound


def run(job: JobSpec, bound: Optional[int] = None) -> dict:
    """Execute a parsed job and return its output document.

    A bound below 1 would empty every selfcheck range, so it is a schema error.
    """
    if bound is None:
        bound = _env_bound()
    elif bound < 1:
        raise SchemaError("/", f"the bound must be a positive integer, got {bound}")
    return COMMANDS[job.command][1](job.payload, bound)


# -- entry point -------------------------------------------------------------

def _load_document(path: Optional[str], command: str) -> dict:
    if path is None:
        return {"command": command}
    try:
        if path == "-":
            if sys.stdin is None:
                raise SchemaError("/", "cannot read input '-': standard input is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise SchemaError("/", f"cannot read input {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError("/", f"input {path!r} is not UTF-8 text: {exc.reason}") from None
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("/", f"input is not valid JSON: {exc}") from None


def _string_rows(rows, indent: str) -> Optional[str]:
    """The text of ``rows`` if every item is a non-empty list or tuple of
    strings (the shape of ``gl_twists``), with one string join per item; else
    None."""
    if not set(map(type, rows)) <= {list, tuple} or not all(rows):
        return None
    inner = indent + "  "
    deep = inner + "  "
    try:
        items = [("," + deep).join(map(_ascii, row)) for row in rows]
    except TypeError:  # _ascii refuses anything but a string
        return None
    return ("[" + inner + "[" + deep + (inner + "]," + inner + "[" + deep).join(items)
            + inner + "]" + indent + "]")


def _write(value, indent: str, out: list[str]) -> None:
    """Append the text of ``value`` to ``out``; ``indent`` is a newline and
    the indentation of the line that ``value`` starts on."""
    if isinstance(value, str):
        out.append(_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        text = _string_rows(value, indent)
        if text is not None:
            out.append(text)
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            # json.dumps writes a non-string key as its own JSON text, quoted
            name = key if isinstance(key, str) else json.dumps(key)
            out.append(sep + _ascii(name) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(indent + "}")
    else:
        out.append(json.dumps(value))


def emit(doc: dict, compact: bool = False) -> str:
    """``doc`` as JSON text: ``json.dumps(doc, sort_keys=True, indent=2)``
    byte for byte, or its compact single-line form.

    The indented form is written by ``_write``, because ``json.dumps`` runs
    its pure-Python encoder whenever ``indent`` is set (before Python 3.13);
    the leaves still go through the C string encoder.
    """
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    out: list[str] = []
    _write(doc, "\n", out)
    return "".join(out)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cusp-atlas",
        description="dual-side combinatorics of classical groups: unipotent "
                    "classes, cuspidal supports, Hecke parameters")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", default=None, metavar="FILE",
                        help="job document (JSON); '-' reads standard input")
    parser.add_argument("--bound", type=int, default=None,
                        help=f"cap on enumeration sizes and selfcheck ranges "
                             f"(default: ${ENV_BOUND} or {DEFAULT_BOUND})")
    parser.add_argument("--json", action="store_true",
                        help="compact single-line output")
    args = parser.parse_args(argv)

    try:
        document = _load_document(args.input, args.command)
        job = parse_input(document, args.command)
        out = run(job, bound=args.bound)
    except SchemaError as exc:
        print(emit({"error": {"kind": "schema", "pointer": exc.pointer,
                              "message": exc.message}}), file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(emit({"error": {"kind": "invariant", "message": str(exc)}}),
              file=sys.stderr)
        return 4
    except CuspAtlasError as exc:
        print(emit({"error": {"kind": "domain", "message": str(exc)}}),
              file=sys.stderr)
        return 3
    try:
        print(emit(out, compact=args.json), flush=True)
    except BrokenPipeError:
        # the reader has gone (say, `| head`): the rest of the output goes to
        # the null device, so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if args.command == "selfcheck" and not out.get("ok", False):
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
