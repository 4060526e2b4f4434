"""Command-line front end: JSON jobs in, deterministic JSON documents out.

Commands: validate, springer, support, cuspidal-test, reducibility,
bernstein, hecke, enumerate, selfcheck.  A job is a JSON object carrying
"command" plus the payload fields of that command; unknown fields are
rejected with a JSON-pointer path.  Half-integers are serialized as exact
fraction strings, never floats, and keys are emitted sorted, so identical
jobs produce byte-identical output.

Exit codes: 0 success, 2 schema error, 3 domain error, 4 invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from . import census
from .bernstein import GLFactor, InertialTriple, hecke_parameters, torus_dim, weyl_descriptor
from .cuspsupport import SupportReport, check_support
from .errors import (
    BoundExceeded,
    CuspAtlasError,
    InternalCheckError,
    SchemaError,
)
from .lparams import (
    DiscreteParameter,
    IrrLabel,
    SelfDualType,
    is_cuspidal,
    reducibility_point,
    sgroup_factors,
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
from .springer import ProductFactor, springer_datum, springer_o, springer_product

ENV_BOUND = "CUSP_ATLAS_BOUND"
DEFAULT_BOUND = 24

COMMANDS = ("validate", "springer", "support", "cuspidal-test", "reducibility",
            "bernstein", "hecke", "enumerate", "selfcheck")


@dataclass(frozen=True)
class JobSpec:
    command: str
    payload: Any


# -- schema helpers ----------------------------------------------------------

def _expect_object(doc, pointer: str, required: dict, optional: dict = {}) -> dict:
    if not isinstance(doc, dict):
        raise SchemaError(pointer or "/", "expected an object")
    out = {}
    for key, checker in required.items():
        if key not in doc:
            raise SchemaError(f"{pointer}/{key}", "missing required field")
        out[key] = checker(doc[key], f"{pointer}/{key}")
    for key, checker in optional.items():
        if key in doc:
            out[key] = checker(doc[key], f"{pointer}/{key}")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        key = sorted(unknown)[0]
        raise SchemaError(f"{pointer}/{key}", "unknown field")
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
    if value not in (1, -1):
        raise SchemaError(pointer, "expected +1 or -1")
    return value


def _int_list(value, pointer: str) -> list[int]:
    if not isinstance(value, list):
        raise SchemaError(pointer, "expected a list")
    return [_int(x, f"{pointer}/{i}") for i, x in enumerate(value)]


def _group(value, pointer: str) -> GroupKind:
    fields = _expect_object(value, pointer, {"family": _string, "N": _int})
    try:
        family = Family(fields["family"])
    except ValueError:
        raise SchemaError(f"{pointer}/family",
                          f"unknown family {fields['family']!r}") from None
    try:
        return GroupKind(family, fields["N"])
    except ValueError as exc:
        raise SchemaError(f"{pointer}/N", str(exc)) from None


_TYPES = {"orthogonal": SelfDualType.ORTHOGONAL,
          "symplectic": SelfDualType.SYMPLECTIC,
          "gl-pair": SelfDualType.GL_PAIR}


class _LabelRegistry:
    def __init__(self):
        self.by_name: dict[str, IrrLabel] = {}

    def resolve(self, value, pointer: str) -> IrrLabel:
        if isinstance(value, str):
            if value not in self.by_name:
                raise SchemaError(pointer, f"label {value!r} has not been defined")
            return self.by_name[value]
        fields = _expect_object(value, pointer,
                                {"name": _string, "dim": _int, "type": _string})
        if fields["type"] not in _TYPES:
            raise SchemaError(f"{pointer}/type", f"unknown type {fields['type']!r}")
        if fields["dim"] < 1:
            raise SchemaError(f"{pointer}/dim", "expected a positive integer")
        label = IrrLabel(fields["name"], fields["dim"], _TYPES[fields["type"]])
        prior = self.by_name.setdefault(label.name, label)
        if prior != label:
            raise SchemaError(pointer, f"label {label.name!r} redefined with new data")
        return label


def _blocks(value, pointer: str, registry: _LabelRegistry, with_signs: bool):
    if not isinstance(value, list):
        raise SchemaError(pointer, "expected a list")
    blocks, signs = [], {}
    for i, item in enumerate(value):
        here = f"{pointer}/{i}"
        spec = {"pi": lambda v, p: registry.resolve(v, p), "a": _int}
        if with_signs:
            spec["sign"] = _sign
        fields = _expect_object(item, here, spec)
        if fields["a"] < 1:
            raise SchemaError(f"{here}/a", "expected a positive integer")
        blocks.append((fields["pi"], fields["a"]))
        if with_signs:
            signs[(fields["pi"].name, fields["a"])] = fields["sign"]
    return blocks, signs


def _partition(value, pointer: str) -> Partition:
    parts = _int_list(value, pointer)
    for i, q in enumerate(parts):
        if q < 1:
            raise SchemaError(f"{pointer}/{i}", "parts are positive integers")
    return Partition(parts)


def _signs_for(parts: tuple[int, ...], value, pointer: str) -> SignCharacter:
    raw = value if isinstance(value, list) else None
    if raw is None:
        raise SchemaError(pointer, "expected a list of +1/-1")
    if len(raw) != len(parts):
        raise SchemaError(pointer, f"expected {len(parts)} signs for generators {list(parts)}")
    return SignCharacter({q: _sign(s, f"{pointer}/{i}") for i, (q, s) in enumerate(zip(parts, raw))})


# -- payload parsing ---------------------------------------------------------

def _parse_orbit_payload(doc, with_signs: bool):
    spec = {"command": _string, "group": _group, "partition": _partition}
    if with_signs:
        spec["signs"] = lambda v, p: v  # validated against the group below
    fields = _expect_object(doc, "", spec)
    kind, p = fields["group"], fields["partition"]
    eta = None
    if with_signs:
        parity = kind.generator_parity
        gens = p.distinct_parts_of_parity(parity) if parity is not None else ()
        eta = _signs_for(gens, fields["signs"], "/signs")
    return kind, p, eta


def _parse_parameter_payload(doc, with_signs: bool):
    registry = _LabelRegistry()
    fields = _expect_object(
        doc, "",
        {"command": _string, "group": _group,
         "blocks": lambda v, p: _blocks(v, p, registry, with_signs)})
    blocks, signs = fields["blocks"]
    param = DiscreteParameter(fields["group"], blocks)
    eta = SignCharacter(signs) if with_signs else None
    return registry, param, eta


def _parse_triple(doc, with_theta: bool):
    registry = _LabelRegistry()

    def factors(value, pointer):
        if not isinstance(value, list):
            raise SchemaError(pointer, "expected a list")
        out = []
        for i, item in enumerate(value):
            here = f"{pointer}/{i}"
            fields = _expect_object(
                item, here,
                {"pi": lambda v, p: registry.resolve(v, p), "ell": _int},
                {"torsion": _int, "partner_mprime": _int})
            try:
                out.append(GLFactor(fields["pi"], fields["ell"],
                                    fields.get("torsion", 1),
                                    fields.get("partner_mprime", 0)))
            except ValueError as exc:
                raise SchemaError(here, str(exc)) from None
        return out

    spec = {"command": _string, "group": _group, "gl_factors": factors,
            "cusp_blocks": lambda v, p: _blocks(v, p, registry, with_signs=False)}
    if with_theta:
        spec_opt = {"theta": lambda v, p: _theta(v, p)}
    else:
        spec_opt = {}
    fields = _expect_object(doc, "", spec, spec_opt)
    blocks, _ = fields["cusp_blocks"]
    n_sharp = sum(label.dim * a for label, a in blocks)
    try:
        sharp_kind = GroupKind(fields["group"].family, n_sharp)
    except ValueError as exc:
        raise SchemaError("/cusp_blocks", str(exc)) from None
    cusp = DiscreteParameter(sharp_kind, blocks)
    triple = InertialTriple(fields["group"], fields["gl_factors"], cusp)
    return triple, fields.get("theta", {})


def _theta(value, pointer):
    if not isinstance(value, dict):
        raise SchemaError(pointer, "expected an object of label -> +1/-1")
    return {name: _sign(sign, f"{pointer}/{name}") for name, sign in value.items()}


def parse_input(document, command: Optional[str] = None) -> JobSpec:
    """Validate a job document into a typed JobSpec.

    When ``command`` is given (from the command line) the document may omit
    its "command" field; if both are present they must agree.
    """
    if not isinstance(document, dict):
        raise SchemaError("/", "expected an object")
    doc = dict(document)
    declared = doc.get("command")
    if declared is None:
        if command is None:
            raise SchemaError("/command", "missing required field")
        doc["command"] = command
    elif command is not None and declared != command:
        raise SchemaError("/command", f"document says {declared!r}, requested {command!r}")
    cmd = doc["command"]
    if cmd not in COMMANDS:
        raise SchemaError("/command", f"unknown command {cmd!r}")

    if cmd == "validate":
        if "partition" in doc:
            kind, p, _ = _parse_orbit_payload(doc, with_signs=False)
            return JobSpec(cmd, ("partition", kind, p))
        registry, param, _ = _parse_parameter_payload(doc, with_signs=False)
        return JobSpec(cmd, ("parameter", param))
    if cmd == "springer":
        if "factors" in doc:
            fields = _expect_object(doc, "", {"command": _string,
                                              "factors": _product_factors})
            return JobSpec(cmd, ("product", fields["factors"]))
        kind, p, eta = _parse_orbit_payload(doc, with_signs=True)
        return JobSpec(cmd, ("single", kind, p, eta))
    if cmd in ("support", "cuspidal-test"):
        _, param, eta = _parse_parameter_payload(doc, with_signs=True)
        return JobSpec(cmd, (param, eta))
    if cmd == "reducibility":
        registry = _LabelRegistry()
        fields = _expect_object(
            doc, "",
            {"command": _string, "group": _group,
             "blocks": lambda v, p: _blocks(v, p, registry, with_signs=False),
             "pi": lambda v, p: registry.resolve(v, p)})
        blocks, _ = fields["blocks"]
        return JobSpec(cmd, (fields["group"], blocks, fields["pi"]))
    if cmd == "bernstein":
        triple, _ = _parse_triple(doc, with_theta=False)
        return JobSpec(cmd, triple)
    if cmd == "hecke":
        triple, theta = _parse_triple(doc, with_theta=True)
        return JobSpec(cmd, (triple, theta))
    if cmd == "enumerate":
        fields = _expect_object(doc, "", {"command": _string, "group": _group})
        return JobSpec(cmd, fields["group"])
    fields = _expect_object(doc, "", {"command": _string},
                            {"bounds": _selfcheck_bounds})
    return JobSpec(cmd, fields.get("bounds", {}))


def _product_factors(value, pointer):
    if not isinstance(value, list):
        raise SchemaError(pointer, "expected a list")
    out = []
    for i, item in enumerate(value):
        here = f"{pointer}/{i}"
        fields = _expect_object(item, here,
                                {"partition": _partition, "signs": lambda v, p: v})
        p = fields["partition"]
        eta = _signs_for(p.distinct_parts_of_parity(1), fields["signs"], f"{here}/signs")
        out.append(ProductFactor(p, eta))
    return out


def _selfcheck_bounds(value, pointer):
    allowed = dict.fromkeys(("defect", "orders", "support", "census", "cuspidal"), _positive_int)
    return _expect_object(value, pointer, {}, allowed)


# -- output rendering --------------------------------------------------------

def _frac(x: Fraction) -> str:
    return str(Fraction(x))


def _render_char(eta: SignCharacter) -> list:
    return [[_key_json(k), s] for k, s in eta.values]


def _key_json(key):
    if isinstance(key, tuple):
        return list(key)
    return key


def _p_adic_name(kind: GroupKind) -> str:
    if kind.family is Family.SP:
        return f"SO_{kind.size + 1}(F)"
    if kind.family is Family.SO_ODD:
        return f"Sp_{kind.size - 1}(F)"
    if kind.family is Family.SO_EVEN:
        return f"SO_{kind.size}(F)"
    return ""


def _group_json(kind: GroupKind) -> dict:
    return {"family": kind.family.value, "N": kind.size}


def _render_datum(datum) -> dict:
    return {
        "torus_rank": datum.torus_rank,
        "cusp_partition": list(datum.cusp_partition.parts),
        "cusp_character": _render_char(datum.cusp_character),
        "d": datum.d,
        "dprime": datum.dprime,
        "levi": datum.levi_str(),
    }


def _render_support(report: SupportReport) -> dict:
    sup = report.support
    twists = sorted(((label.name, e) for label, e in sup.gl_twists),
                    key=lambda t: (t[0], -t[1]))
    return {
        "levi": str(sup.levi),
        "gl_twists": [[name, _frac(e)] for name, e in twists],
        "cusp_blocks": [[label.name, a] for label, a in sup.cusp_param.blocks],
        "cusp_char": _render_char(sup.cusp_char),
        "cusp_group": _group_json(sup.cusp_param.dual_group),
        "checks": {
            "infinitesimal_preserved": report.infinitesimal_preserved,
            "dimension_conserved": report.dimension_conserved,
            "idempotent": report.idempotent,
            "fixed_point_iff_cuspidal": report.fixed_point_iff_cuspidal,
            "routes_agree": report.routes_agree,
        },
    }


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
    if job.command == "validate":
        if job.payload[0] == "partition":
            _, kind, p = job.payload
            verdict = validate_partition(kind, p)
            doc = {"valid": verdict.valid, "problems": list(verdict.problems)}
            if verdict:
                doc["orbit_count"] = orbit_count(kind, p)
                desc = component_group(kind, p)
                doc["component_group"] = {
                    "generators": list(desc.labels()),
                    "relation": desc.relation.value,
                    "order": desc.order,
                }
                doc["distinguished"] = is_distinguished(kind, p)
            return doc
        _, param = job.payload
        verdict = validate_parameter(param)
        return {"valid": verdict.valid, "problems": list(verdict.problems)}

    if job.command == "springer":
        if job.payload[0] == "product":
            datum = springer_product(job.payload[1])
            return {
                "blocks": {"case_I": list(datum.block_i),
                           "case_II": list(datum.block_ii),
                           "case_III": list(datum.block_iii)},
                "c_levi": list(datum.generator_labels(datum.c_levi)),
                "c_orbit": list(datum.generator_labels(datum.c_orbit)),
                "c_induction": list(datum.generator_labels(datum.c_induction)),
                "chi_levi": list(datum.chi_levi),
                "chi_orbit": list(datum.chi_orbit),
                "quasi_levi": [str(q) for q in datum.quasi_levi],
                "cusp_data": [_render_datum(d) for d in datum.cusp_data],
                "weyl_rep": {"extended": datum.extended, "induced": datum.induced},
            }
        _, kind, p, eta = job.payload
        if kind.is_full_orthogonal:
            out = springer_o(p, eta)
            return {
                "case": out.case.value,
                "quasi_levi": str(out.quasi_levi),
                "datum": _render_datum(out.datum),
                "weyl_rep": out.weyl_rep.value,
                "chi": out.chi,
                "cusp_character_o": (_render_char(out.cusp_character_o)
                                     if out.cusp_character_o else None),
                "fused_orbits": list(out.fused_orbit_tags),
            }
        datum = springer_datum(kind, p, eta)
        return {"group": _group_json(kind), "datum": _render_datum(datum)}

    if job.command == "support":
        param, eta = job.payload
        doc = _render_support(check_support(param, eta))
        doc["group"] = _group_json(param.dual_group)
        doc["p_adic_group"] = _p_adic_name(param.dual_group)
        return doc

    if job.command == "cuspidal-test":
        param, eta = job.payload
        return {
            "cuspidal": is_cuspidal(param, eta),
            "sgroup_factors": sgroup_factors(param, eta),
        }

    if job.command == "reducibility":
        kind, blocks, label = job.payload
        x = reducibility_point(label, blocks, kind)
        return {"pi": label.name, "x": _frac(x)}

    if job.command == "bernstein":
        triple = job.payload
        return _render_bernstein(triple)

    if job.command == "hecke":
        triple, theta = job.payload
        params = hecke_parameters(triple, theta)
        factors = []
        for f in params.factors:
            factors.append({
                "pi": f.label.name,
                "type": f.root_type.value,
                "rank": f.rank,
                "x_plus": _frac(f.x_plus) if f.x_plus is not None else None,
                "x_minus": _frac(f.x_minus) if f.x_minus is not None else None,
                "lambda": _frac(f.lam) if f.lam is not None else None,
                "lambda_star": _frac(f.lam_star) if f.lam_star is not None else None,
                "mu_short": _frac(f.mu_short) if f.mu_short is not None else None,
                "mu_other": f.mu_other,
            })
        return {"factors": factors}

    if job.command == "enumerate":
        kind = job.payload
        if kind.size > bound:
            raise BoundExceeded(f"size {kind.size} exceeds the bound {bound}")
        table = census.unipotent_census(kind)
        return {"pairs": table["pairs"],
                "by_triple": {f"d={d}": n for d, n in table["by_d"].items()}}

    if job.command == "selfcheck":
        return _selfcheck(job.payload, bound)

    raise SchemaError("/command", f"unknown command {job.command!r}")


def _render_bernstein(triple: InertialTriple) -> dict:
    descriptor = weyl_descriptor(triple)
    torus = torus_dim(triple)
    return {
        "factors": [{"pi": w.label.name, "type": w.root_type.value,
                     "rank": w.rank, "star": w.star} for w in descriptor.factors],
        "r_group": {"case": descriptor.r_group.case,
                    "generators": list(descriptor.r_group.generators),
                    "order": descriptor.r_group.order},
        "torus_dim": torus.total,
        "torsions": [list(t) for t in torus.torsions],
        "n_sharp": triple.n_sharp,
    }


# -- selfcheck ---------------------------------------------------------------

def _selfcheck(bounds: dict, bound: int) -> dict:
    from . import verifications

    results = verifications.run_all(verifications.selfcheck_limits(bounds, bound))
    checks = [{"name": name, "status": "pass" if ok else "fail", "detail": detail}
              for name, ok, detail in results]
    doc = {"ok": all(c["status"] == "pass" for c in checks), "checks": checks}
    return doc


# -- entry point -------------------------------------------------------------

def _load_document(path: Optional[str], command: str) -> dict:
    if path is None:
        return {"command": command}
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"input is not valid JSON: {exc}") from None


def emit(doc: dict, compact: bool = False) -> str:
    if compact:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return json.dumps(doc, sort_keys=True, indent=2)


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
    print(emit(out, compact=args.json))
    if args.command == "selfcheck" and not out.get("ok", False):
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
