"""Seeded inputs, the timed operation and the output checks of each workload.

jobs   in-process CLI documents (json.loads -> parse_input -> run -> emit) for
       every command except `support` and `selfcheck`; about 5 % of them are
       malformed or out of domain and must fail with a known error kind.
sweep  library calls on random enhanced parameters: check_support(p, eta).ok()
       plus the all-orders elimination search on every label slice.
wide   CLI `support` jobs whose parameter has one block of size a in the
       hundreds next to a few small blocks.

Every workload is a fixed cycle of slots.  The seed draws the inputs inside
each slot; the proportions of the slots, and for `wide` the size stratum of
each slot, are fixed, so the work mix (and with it the median and the tail)
is the same for every seed.  Generation and checking happen outside the
timed region; an operation is `execute(op)`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

from cusp_atlas import cli, cuspsupport, lparams
from cusp_atlas.errors import CuspAtlasError, InternalCheckError, SchemaError
from cusp_atlas.lparams import DiscreteParameter, IrrLabel, SelfDualType
from cusp_atlas.orbits import Family, GroupKind, SignCharacter

NAMES = ("p", "q", "r")
TYPES = ("orthogonal", "symplectic")


class Op:
    """One generated operation: its input and what the checks need to know."""

    __slots__ = ("slot", "data", "expect", "meta")

    def __init__(self, slot, data, expect=None, meta=None):
        self.slot = slot
        self.data = data
        self.expect = expect  # error kind the op must end with, or None
        self.meta = meta or {}


class Outcome:
    """What one execution produced: an error kind or a result, and the bytes hashed."""

    __slots__ = ("kind", "result", "body")

    def __init__(self, kind, result, body):
        self.kind = kind
        self.result = result
        self.body = body


# -- shared generators -------------------------------------------------------

def side_parity(family: str, sd_type: str) -> int:
    """Block size parity of a label in a dual group: 0 even (Sp side), 1 odd (O side).

    Only whether the family is "Sp" matters; any other family is orthogonal.
    """
    matches = (family == "Sp") == (sd_type == "symplectic")
    return 1 if matches else 0


def distinct_sizes(rng: random.Random, parity: int, count: int, top: int) -> list[int]:
    pool = [a for a in range(1, top + 1) if a % 2 == parity]
    return sorted(rng.sample(pool, min(count, len(pool))))


def random_blocks(rng, kind: str, n_labels: int, max_blocks: int, top: int, max_total: int,
                  min_total: int = 1, dims=(1, 1, 2)):
    """Labels and block sizes of a valid discrete parameter of Sp (kind "Sp") or SO.

    Returns (family, N, labels, sizes) with labels as (name, dim, type),
    sizes[name] the distinct block sizes of that label, and N in
    [min_total, max_total].  Sizes are drawn within the budget left, keeping
    room for one small block of each label still to come.
    """
    while True:
        labels = [(name, rng.choice(dims), rng.choice(TYPES)) for name in NAMES[:n_labels]]
        sizes, total = {}, 0
        for i, (name, dim, sd) in enumerate(labels):
            budget = max_total - total - 4 * (n_labels - 1 - i)
            pool = [a for a in range(1, top + 1) if a % 2 == side_parity(kind, sd)]
            rng.shuffle(pool)
            chosen = []
            for a in pool:
                if len(chosen) < max_blocks and dim * a <= budget:
                    chosen.append(a)
                    budget -= dim * a
            chosen = sorted(chosen[:rng.randint(1, max_blocks)])
            if not chosen:
                break
            sizes[name] = chosen
            total += dim * sum(chosen)
        if len(sizes) < n_labels or not min_total <= total <= max_total:
            continue
        if kind == "Sp":
            if total % 2:
                continue
            return kind, total, labels, sizes
        return ("SOodd" if total % 2 else "SOeven"), total, labels, sizes


def blocks_json(labels, sizes, signs=None):
    """CLI block list; the first block of a label defines it, later ones refer to it."""
    out = []
    for name, dim, sd in labels:
        for i, a in enumerate(sizes[name]):
            pi = {"name": name, "dim": dim, "type": sd} if i == 0 else name
            block = {"pi": pi, "a": a}
            if signs is not None:
                block["sign"] = signs[(name, a)]
            out.append(block)
    return out


def random_signs(rng, labels, sizes):
    return {(name, a): rng.choice((1, -1)) for name, _, _ in labels for a in sizes[name]}


def is_cuspidal_by_definition(labels, sizes, signs) -> bool:
    """Gapless blocks stepping down by two to 1 or 2, with alternating signs."""
    for name, _, _ in labels:
        s = sizes[name]
        if s[0] > 2 or any(hi - lo != 2 for lo, hi in zip(s, s[1:])):
            return False
        if any(signs[(name, lo)] == signs[(name, hi)] for lo, hi in zip(s, s[1:])):
            return False
        if s[0] % 2 == 0 and signs[(name, s[0])] != -1:
            return False
    return True


def staircase(family: str, d: int) -> list[int]:
    """Cuspidal partition of size parameter d, decreasing."""
    if family == "Sp":
        return [2 * i for i in range(d, 0, -1)]
    return [2 * i - 1 for i in range(d, 0, -1)]


def _partition_counts(n: int) -> list[int]:
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            counts[m] += counts[m - k]
    return counts


_P = _partition_counts(64)


def _bip(m: int) -> int:
    return sum(_P[a] * _P[m - a] for a in range(m + 1))


def predicted_census(family: str, n: int) -> dict[str, int]:
    """Class counts per cuspidal datum d from the generalized Springer correspondence.

    Sp_N: #Irr W(B_m), m = (N - d(d+1))/2.  SO_N: d = N mod 2, d^2 <= N,
    m = (N - d^2)/2, #Irr W(B_m) for d > 0 and #Irr W(D_m) for d = 0.
    """
    out = {}
    d = 0
    while (d * (d + 1) if family == "Sp" else d * d) <= n:
        if family == "Sp":
            if (n - d * (d + 1)) % 2 == 0:
                out[f"d={d}"] = _bip((n - d * (d + 1)) // 2)
        elif (n - d) % 2 == 0:
            m = (n - d * d) // 2
            if d:
                out[f"d={d}"] = _bip(m)
            else:
                out[f"d={d}"] = (_bip(m) + 3 * _P[m // 2]) // 2 if m % 2 == 0 else _bip(m) // 2
        d += 1
    return out


# -- CLI execution -----------------------------------------------------------

def run_cli(text: str) -> Outcome:
    """One in-process CLI job, mapping errors to kinds as `cusp-atlas` does."""
    try:
        out = cli.run(cli.parse_input(json.loads(text)))
        return Outcome(None, out, cli.emit(out))
    except json.JSONDecodeError as exc:
        err = {"kind": "schema", "pointer": "/", "message": f"input is not valid JSON: {exc}"}
    except SchemaError as exc:
        err = {"kind": "schema", "pointer": exc.pointer, "message": exc.message}
    except InternalCheckError as exc:
        err = {"kind": "invariant", "message": str(exc)}
    except CuspAtlasError as exc:
        err = {"kind": "domain", "message": str(exc)}
    return Outcome(err["kind"], None, cli.emit({"error": err}))


def check_cli(op: Op, outcome: Outcome, checks) -> str | None:
    if op.expect is not None or outcome.kind is not None:
        if outcome.kind != op.expect:
            return f"{op.slot}: expected error kind {op.expect}, got {outcome.kind}: {outcome.body}"
        return None
    return checks[op.slot](op, outcome.result)


# -- jobs ----------------------------------------------------------------------

def _doc(command, **fields):
    return json.dumps({"command": command, **fields}, sort_keys=True)


def _group(family, n):
    return {"family": family, "N": n}


def _orbit_partition(rng, family: str, n_max: int):
    """A valid partition for Sp / SO / O: the parity class that needs pairs comes in pairs."""
    paired = 1 if family == "Sp" else 0  # odd parts pair up in Sp, even parts in (S)O
    while True:
        parts = []
        for _ in range(rng.randint(1, 5)):
            q = rng.randint(1, 9)
            parts += [q, q] if q % 2 == paired else [q]
        n = sum(parts)
        if n > n_max:
            continue
        if family in ("Sp", "SOeven", "Oeven") and n % 2:
            continue
        if family in ("SOodd", "Oodd") and n % 2 == 0:
            continue
        return sorted(parts, reverse=True)


def _is_degenerate(parts) -> bool:
    return all(q % 2 == 0 and parts.count(q) % 2 == 0 for q in parts)


def _odd_generators(parts):
    return sorted({q for q in parts if q % 2})


def gen_validate_partition(rng):
    family = rng.choice(("Sp", "SOodd", "SOeven", "Oodd", "Oeven", "GL"))
    if family == "GL":
        parts = sorted((rng.randint(1, 6) for _ in range(rng.randint(1, 5))), reverse=True)
    else:
        parts = _orbit_partition(rng, family, 24)
    n = sum(parts)
    valid = True
    if rng.random() < 0.2 and family != "GL":  # a wrong total is reported, not raised
        n += 2
        valid = False
    text = _doc("validate", group=_group(family, n), partition=parts)
    return Op("validate-partition", text, meta={"family": family, "parts": parts, "valid": valid})


def check_validate_partition(op, out):
    m = op.meta
    if out["valid"] != m["valid"] or bool(out["problems"]) == m["valid"]:
        return f"validate: verdict {out['valid']} for {m}"
    if not m["valid"]:
        return None
    family, parts = m["family"], m["parts"]
    if family == "GL":
        gens = []
    else:
        parity = 0 if family == "Sp" else 1
        gens = sorted({q for q in parts if q % 2 == parity})
    cg = out["component_group"]
    if cg["generators"] != [f"z_{g}" for g in gens]:
        return f"validate: generators {cg['generators']} for {parts}"
    order = 2 ** max(0, len(gens) - 1) if family in ("SOodd", "SOeven") else 2 ** len(gens)
    if cg["order"] != order:
        return f"validate: component group order {cg['order']} != {order}"
    distinguished = (family != "GL" and len(set(parts)) == len(parts)
                     and all(q % 2 == (0 if family == "Sp" else 1) for q in parts))
    if out["distinguished"] != distinguished:
        return f"validate: distinguished {out['distinguished']} for {family} {parts}"
    doubled = family == "SOeven" and _is_degenerate(parts)
    if out["orbit_count"] != (2 if doubled else 1):
        return f"validate: orbit count {out['orbit_count']} for {family} {parts}"
    return None


def gen_validate_parameter(rng):
    family, n, labels, sizes = random_blocks(rng, rng.choice(("Sp", "SO")), rng.randint(1, 3), 4, 11, 30)
    valid = True
    if rng.random() < 0.25:  # a wrong ambient size is a problem in the verdict
        n += 2
        valid = False
    text = _doc("validate", group=_group(family, n), blocks=blocks_json(labels, sizes))
    return Op("validate-parameter", text, meta={"valid": valid})


def check_validate_parameter(op, out):
    if out["valid"] != op.meta["valid"] or bool(out["problems"]) == op.meta["valid"]:
        return f"validate parameter: verdict {out['valid']}, expected {op.meta['valid']}"
    return None


def gen_springer_single(rng):
    family = rng.choice(("Sp", "SOodd", "SOeven"))
    parity = 0 if family == "Sp" else 1
    while True:
        parts = distinct_sizes(rng, parity, rng.randint(1, 6), 13)
        n = sum(parts)
        if (family == "SOodd") == (n % 2 == 1):
            break
    parts.sort(reverse=True)
    signs = [rng.choice((1, -1)) for _ in parts]
    text = _doc("springer", group=_group(family, n), partition=parts, signs=signs)
    return Op("springer", text, meta={"family": family, "n": n})


def _datum_ok(datum, family, n):
    d = datum["d"]
    if 2 * datum["torus_rank"] + sum(datum["cusp_partition"]) != n:
        return f"2*torus_rank + |cusp| != {n}: {datum}"
    if datum["cusp_partition"] != staircase(family, d):
        return f"cuspidal partition {datum['cusp_partition']} is not the staircase of d={d}"
    if len(datum["cusp_character"]) != d:
        return f"cuspidal character {datum['cusp_character']} has not {d} values"
    return None


def check_springer(op, out):
    family = "Sp" if op.meta["family"] == "Sp" else "SO"
    if out["group"] != _group(op.meta["family"], op.meta["n"]):
        return f"springer: group {out['group']}"
    return _datum_ok(out["datum"], family, op.meta["n"])


def gen_springer_o(rng):
    family = rng.choice(("Oodd", "Oeven"))
    if family == "Oeven" and rng.random() < 0.3:  # degenerate: case III
        parts = []
        for _ in range(rng.randint(1, 3)):
            q = rng.choice((2, 4, 6))
            parts += [q, q]
        parts.sort(reverse=True)
    else:
        parts = _orbit_partition(rng, family, 24)
    signs = [rng.choice((1, -1)) for _ in _odd_generators(parts)]
    text = _doc("springer", group=_group(family, sum(parts)), partition=parts, signs=signs)
    return Op("springer-o", text, meta={"parts": parts})


def check_springer_o(op, out):
    parts = op.meta["parts"]
    degenerate = _is_degenerate(parts)
    if (out["case"] == "III") != degenerate or bool(out["fused_orbits"]) != degenerate:
        return f"springer O: case {out['case']} for {parts}"
    datum = out["datum"]
    if 2 * datum["torus_rank"] + sum(datum["cusp_partition"]) != sum(parts):
        return f"springer O: 2*torus_rank + |cusp| != {sum(parts)}"
    return None


def gen_springer_product(rng):
    factors, sizes = [], []
    for _ in range(rng.randint(2, 4)):
        family = rng.choice(("Oodd", "Oeven"))
        parts = _orbit_partition(rng, family, 14)
        signs = [rng.choice((1, -1)) for _ in _odd_generators(parts)]
        factors.append({"partition": parts, "signs": signs})
        sizes.append(sum(parts))
    return Op("springer-product", _doc("springer", factors=factors), meta={"sizes": sizes})


def check_springer_product(op, out):
    sizes = op.meta["sizes"]
    blocks = out["blocks"]
    indices = sorted(blocks["case_I"] + blocks["case_II"] + blocks["case_III"])
    if indices != list(range(len(sizes))) or len(out["cusp_data"]) != len(sizes):
        return f"springer product: factor cases {blocks} for {len(sizes)} factors"
    for n, datum in zip(sizes, out["cusp_data"]):
        if 2 * datum["torus_rank"] + sum(datum["cusp_partition"]) != n:
            return f"springer product: 2*torus_rank + |cusp| != {n}"
    return None


def gen_cuspidal_test(rng):
    kind = rng.choice(("Sp", "SO"))
    if rng.random() < 0.4:  # gapless staircases, so both verdicts occur
        while True:
            labels = [(name, rng.choice((1, 1, 2)), rng.choice(TYPES))
                      for name in NAMES[:rng.randint(1, 2)]]
            sizes = {}
            for name, _, sd in labels:
                low = 2 - side_parity(kind, sd)
                sizes[name] = list(range(low, low + 2 * rng.randint(1, 4), 2))
            n = sum(dim * sum(sizes[name]) for name, dim, _ in labels)
            if kind == "SO" or n % 2 == 0:
                break
        family = kind if kind == "Sp" else ("SOodd" if n % 2 else "SOeven")
    else:
        family, n, labels, sizes = random_blocks(rng, kind, rng.randint(1, 3), 4, 9, 30)
    signs = random_signs(rng, labels, sizes)
    if rng.random() < 0.5:  # alternate the signs on half of them
        for name, _, _ in labels:
            start = -1 if sizes[name][0] % 2 == 0 else rng.choice((1, -1))
            for i, a in enumerate(sizes[name]):
                signs[(name, a)] = start * (-1) ** i
    text = _doc("cuspidal-test", group=_group(family, n), blocks=blocks_json(labels, sizes, signs))
    return Op("cuspidal-test", text,
              meta={"cuspidal": is_cuspidal_by_definition(labels, sizes, signs)})


def check_cuspidal_test(op, out):
    if out["cuspidal"] != op.meta["cuspidal"] or not isinstance(out["sgroup_factors"], bool):
        return f"cuspidal-test: {out}, expected cuspidal={op.meta['cuspidal']}"
    return None


def gen_reducibility(rng):
    family, n, labels, sizes = random_blocks(rng, rng.choice(("Sp", "SO")), rng.randint(1, 2), 4, 11, 30)
    blocks = blocks_json(labels, sizes)
    if rng.random() < 0.6:
        name, _, _ = rng.choice(labels)
        pi = name
        expected = Fraction(max(sizes[name]) + 1, 2)
    else:
        sd = rng.choice(TYPES)
        pi = {"name": "z", "dim": rng.randint(1, 2), "type": sd}
        matched = (family == "Sp") == (sd == "symplectic")
        expected = Fraction(1, 2) if matched else Fraction(0)
    text = _doc("reducibility", group=_group(family, n), blocks=blocks, pi=pi)
    return Op("reducibility", text, meta={"x": str(expected)})


def check_reducibility(op, out):
    if out["x"] != op.meta["x"]:
        return f"reducibility: x = {out['x']}, expected {op.meta['x']}"
    return None


_PARTNER_TOTALS = {0: ((2, 2), (6, 4), (12, 6)),   # Sp side: (2+4+...+2d, top 2d)
                   1: ((1, 1), (4, 3), (9, 5))}    # O side: (1+3+...+(2d-1), top 2d-1)


def _triple(rng, theta: bool):
    """A normalized inertial triple: GL factors around a valid classical part."""
    kind = rng.choice(("Sp", "SO"))
    family, n_sharp, labels, sizes = random_blocks(rng, kind, rng.randint(1, 2), 3, 9, 20)
    factors, ells, pairs = [], [], []
    for i in range(rng.randint(1, 3)):
        roll = rng.random()
        partner = 0
        if roll < 0.25:
            pi = {"name": f"g{i}", "dim": rng.randint(1, 2), "type": "gl-pair"}
        elif roll < 0.6 and i < len(labels):  # a label of the classical part
            name, dim, sd = labels[i]
            pi = {"name": name, "dim": dim, "type": sd}
            s = sizes[name]
            fits = [t for t, top in _PARTNER_TOTALS[s[0] % 2] if top <= s[-1] and t <= sum(s)]
            if fits and rng.random() < 0.4:
                partner = rng.choice(fits)
        else:
            pi = {"name": f"t{i}", "dim": rng.randint(1, 2), "type": rng.choice(TYPES)}
        ell = rng.randint(0, 4)
        factor = {"pi": pi, "ell": ell}
        if rng.random() < 0.3:
            factor["torsion"] = rng.randint(1, 3)
        if partner:
            factor["partner_mprime"] = partner
        factors.append(factor)
        ells.append(ell)
        pairs.append(pi["type"] == "gl-pair")
    n = n_sharp + sum(2 * f["pi"]["dim"] * f["ell"] for f in factors)
    fields = {"group": _group(family, n), "gl_factors": factors,
              "cusp_blocks": blocks_json(labels, sizes)}
    if theta:
        fields["theta"] = {name: rng.choice((1, -1)) for name, _, _ in labels}
    return fields, {"ells": ells, "n_sharp": n_sharp, "gl_pair": pairs}


def gen_bernstein(rng):
    fields, meta = _triple(rng, theta=False)
    return Op("bernstein", _doc("bernstein", **fields), meta=meta)


def gen_hecke(rng):
    fields, meta = _triple(rng, theta=True)
    return Op("hecke", _doc("hecke", **fields), meta=meta)


def check_bernstein(op, out):
    m = op.meta
    if out["torus_dim"] != sum(m["ells"]) or out["n_sharp"] != m["n_sharp"]:
        return f"bernstein: torus {out['torus_dim']} / n_sharp {out['n_sharp']} for {m}"
    if len(out["factors"]) != len(m["ells"]):
        return f"bernstein: {len(out['factors'])} factors for {len(m['ells'])}"
    for f, ell, pair in zip(out["factors"], m["ells"], m["gl_pair"]):
        want = 0 if ell == 0 else (ell - 1 if pair else ell)
        if f["rank"] != want:
            return f"bernstein: factor rank {f['rank']} for ell={ell}"
    if out["r_group"]["order"] != 2 ** len(out["r_group"]["generators"]):
        return f"bernstein: R-group order {out['r_group']}"
    return None


def check_hecke(op, out):
    if len(out["factors"]) != len(op.meta["ells"]):
        return f"hecke: {len(out['factors'])} factors for {len(op.meta['ells'])}"
    for f in out["factors"]:
        if f["x_plus"] is None:
            continue
        xp, xm = Fraction(f["x_plus"]), Fraction(f["x_minus"])
        lam, lam_star = Fraction(f["lambda"]), Fraction(f["lambda_star"])
        if xp < xm or lam != xp + xm or lam_star != xp - xm:
            return f"hecke: inconsistent parameters {f}"
        if f["type"] == "B" and Fraction(f["mu_short"]) not in (lam + lam_star, lam - lam_star):
            return f"hecke: short root parameter {f}"
    return None


# Enumerate jobs cycle through groups up to the default bound of 24.  Sp_16
# (about 25 ms) fills 43 of the 60 slots; the ten slower groups (30 to 175 ms)
# and the seven faster ones are spread evenly between them.  The tail
# percentile of `jobs` falls near the middle of the Sp_16 ops, so the tail
# is the same for every seed, while every size counts in ops_per_s and
# census.enumerate_ms.
ENUMERATE_SMALL = (("Sp", 8), ("SOodd", 11), ("SOeven", 12), ("Sp", 14), ("SOodd", 15),
                   ("SOeven", 16), ("SOodd", 17))
ENUMERATE_LARGE = (("SOodd", 19), ("SOeven", 20), ("Sp", 18), ("SOodd", 21), ("SOeven", 22),
                   ("Sp", 20), ("SOodd", 23), ("SOeven", 24), ("Sp", 22), ("Sp", 24))
ENUMERATE_TAIL = ("Sp", 16)
ENUMERATE_TAIL_SLOTS = 43


def _enumerate_cycle() -> tuple:
    """The small and large groups spread evenly, the smallest first, Sp_16 in between."""
    singles = sorted([((i + 0.25) / len(ENUMERATE_SMALL), g) for i, g in enumerate(ENUMERATE_SMALL)]
                     + [((i + 0.5) / len(ENUMERATE_LARGE), g) for i, g in enumerate(ENUMERATE_LARGE)])
    n, cycle = len(singles), []
    for i, (_, group) in enumerate(singles):
        tails = (i + 1) * ENUMERATE_TAIL_SLOTS // n - i * ENUMERATE_TAIL_SLOTS // n
        cycle += [group] + [ENUMERATE_TAIL] * tails
    return tuple(cycle)


ENUMERATE_GROUPS = _enumerate_cycle()


def gen_enumerate(rng, ordinal):
    family, n = ENUMERATE_GROUPS[ordinal % len(ENUMERATE_GROUPS)]
    return Op("enumerate", _doc("enumerate", group=_group(family, n)),
              meta={"family": family, "n": n})


def check_enumerate(op, out):
    predicted = predicted_census(op.meta["family"], op.meta["n"])
    if out["by_triple"] != predicted or out["pairs"] != sum(predicted.values()):
        return f"enumerate: {out} differs from the predicted counts {predicted}"
    return None


def _malformed(rng, ordinal):
    """Documents that must fail, with the error kind `cusp-atlas` reports for them."""
    case = ordinal % 10
    if case == 0:
        doc = json.loads(gen_springer_single(rng).data)
        doc["extra"] = rng.randint(0, 9)
        return json.dumps(doc), "schema"
    if case == 1:
        text = gen_cuspidal_test(rng).data
        return text[: rng.randint(1, len(text) - 1)], "schema"
    if case == 2:
        doc = json.loads(gen_cuspidal_test(rng).data)
        doc["blocks"][rng.randrange(len(doc["blocks"]))]["sign"] = 0
        return json.dumps(doc), "schema"
    if case == 3:
        doc = json.loads(gen_springer_single(rng).data)
        doc["signs"].append(1)
        return json.dumps(doc), "schema"
    if case == 4:  # a valid Sp partition that is not distinguished
        q = rng.choice((2, 4, 6))
        parts = sorted([q, q] + rng.sample((8, 10, 12), rng.randint(0, 2)), reverse=True)
        gens = sorted(set(parts))
        return _doc("springer", group=_group("Sp", sum(parts)), partition=parts,
                    signs=[rng.choice((1, -1)) for _ in gens]), "domain"
    if case == 5:
        family, n = rng.choice((("Sp", 26), ("SOodd", 27), ("SOeven", 30)))
        return _doc("enumerate", group=_group(family, n)), "domain"
    if case == 6:  # an odd block for an orthogonal label of Sp
        return _doc("cuspidal-test", group=_group("Sp", 4), blocks=[
            {"pi": {"name": "p", "dim": 1, "type": "orthogonal"}, "a": 1, "sign": 1},
            {"pi": "p", "a": 3, "sign": rng.choice((1, -1))}]), "domain"
    if case == 7:  # the partner block total exceeds the label's own block total
        blocks = [2, 4][: rng.randint(1, 2)]
        label = {"name": "p", "dim": 1, "type": "orthogonal"}
        ell = rng.randint(1, 3)
        return _doc(rng.choice(("bernstein", "hecke")), group=_group("Sp", sum(blocks) + 2 * ell),
                    gl_factors=[{"pi": label, "ell": ell, "partner_mprime": 99}],
                    cusp_blocks=blocks_json([("p", 1, "orthogonal")], {"p": blocks})), "domain"
    if case == 8:
        doc = json.loads(gen_reducibility(rng).data)
        doc["pi"] = "undefined"
        return json.dumps(doc), "schema"
    return _doc(rng.choice(("spring", "support-all", "")), group=_group("Sp", 2)), "schema"


def _stride_cycle(counts: dict[str, int]) -> tuple[str, ...]:
    """Slots of each kind spread evenly over one cycle."""
    total = sum(counts.values())
    placed = [((i + 0.5) * total / c, kind) for kind, c in counts.items() for i in range(c)]
    return tuple(kind for _, kind in sorted(placed))


class Workload:
    name = ""
    cycle: tuple = ()
    digest_ops = 0     # the digest covers exactly this many ops, for every run
    tail_pct = 99.0    # fixed, so that the tail compares across runs and commits

    def __init__(self, seed: int, stream: str = "main"):
        self.rng = random.Random(f"{self.name}:{seed}:{stream}")
        self.position = 0
        self.ordinals: dict[str, int] = {}

    def next_op(self) -> Op:
        slot = self.cycle[self.position % len(self.cycle)]
        self.position += 1
        ordinal = self.ordinals.get(slot, 0)
        self.ordinals[slot] = ordinal + 1
        return self.make(slot, ordinal)

    def warmup_ops(self) -> list[Op]:
        """One op of every slot kind, each at its first (smallest) ordinal."""
        return [self.make(slot, 0) for slot in dict.fromkeys(self.cycle)]

    @staticmethod
    def execute(op) -> Outcome:
        """The timed operation; by default one CLI job."""
        return run_cli(op.data)

    @staticmethod
    def body(op, outcome) -> bytes:
        """The bytes of an outcome that go into the digest; by default the emitted document."""
        return outcome.body.encode()


class Jobs(Workload):
    name = "jobs"
    # one enumerate job in 500; 5 % malformed
    cycle = _stride_cycle({
        "validate-partition": 150, "validate-parameter": 80, "springer": 210,
        "springer-o": 105, "springer-product": 70, "cuspidal-test": 120,
        "reducibility": 70, "bernstein": 70, "hecke": 70, "malformed": 50,
        "enumerate": 2})
    digest_ops = 600
    # beyond p99.9 lie 50 % of the enumerate ops: the large groups (17 % of
    # them) and the slower half of the Sp_16 ops
    tail_pct = 99.9
    makers = {"validate-partition": gen_validate_partition,
              "validate-parameter": gen_validate_parameter,
              "springer": gen_springer_single, "springer-o": gen_springer_o,
              "springer-product": gen_springer_product, "cuspidal-test": gen_cuspidal_test,
              "reducibility": gen_reducibility, "bernstein": gen_bernstein, "hecke": gen_hecke}
    checks = {"validate-partition": check_validate_partition,
              "validate-parameter": check_validate_parameter,
              "springer": check_springer, "springer-o": check_springer_o,
              "springer-product": check_springer_product, "cuspidal-test": check_cuspidal_test,
              "reducibility": check_reducibility, "bernstein": check_bernstein,
              "hecke": check_hecke, "enumerate": check_enumerate}

    def make(self, slot, ordinal):
        if slot == "enumerate":
            return gen_enumerate(self.rng, ordinal)
        if slot == "malformed":
            text, kind = _malformed(self.rng, ordinal)
            return Op("malformed", text, expect=kind)
        return self.makers[slot](self.rng)

    def check(self, op, outcome):
        return check_cli(op, outcome, self.checks)


class Sweep(Workload):
    """check_support and the all-orders search, the per-item work of selfcheck."""

    name = "sweep"
    # (dual family, number of labels, range of the total size N): the cost of
    # an op grows with N, so fixed shares of each band keep the tail steady
    cycle = tuple((family, labels, band) for band in ((1, 14), (15, 22), (23, 30))
                  for labels in (1, 2, 3) for family in ("Sp", "SO"))
    digest_ops = 150
    tail_pct = 95.0  # p99 moved by 7 % between seeds, p95 by 2 %

    def make(self, slot, ordinal):
        kind, n_labels, (lo, hi) = slot
        family, n, labels, sizes = random_blocks(self.rng, kind, n_labels, 6, 11, hi, lo)
        dual = GroupKind(Family(family), n)
        objs = {name: IrrLabel(name, dim, SelfDualType(sd)) for name, dim, sd in labels}
        signs = random_signs(self.rng, labels, sizes)
        param = DiscreteParameter(dual, [(objs[name], a) for name, a in signs])
        slices = []
        for name, label in objs.items():
            side = lparams.block_group_type(dual, label)
            slices.append((label, side, tuple(sizes[name]),
                           SignCharacter({a: signs[(name, a)] for a in sizes[name]})))
        return Op(f"{kind}-{n_labels}-{lo}", (param, SignCharacter(signs), tuple(slices)))

    @staticmethod
    def execute(op):
        param, eta, slices = op.data
        ok = cuspsupport.check_support(param, eta).ok()
        searches = [cuspsupport.all_order_slice_supports(*s) for s in slices]
        return Outcome(None, (ok, searches), None)

    @staticmethod
    def check(op, outcome):
        ok, searches = outcome.result
        if not ok:
            return f"sweep: check_support fails on {op.data[0]} {op.data[1]}"
        sizes = [len(s) for s in searches]
        if any(n != 1 for n in sizes):
            return f"sweep: {sizes} supports over all orders on {op.data[0]} {op.data[1]}"
        return None

    @staticmethod
    def body(op, outcome) -> bytes:
        ok, searches = outcome.result
        return repr((ok, [sorted(map(repr, s)) for s in searches])).encode()


class Wide(Workload):
    """CLI support jobs with one block of size a in the hundreds."""

    name = "wide"
    # eight strata of a over [100, 804); slot k draws a from stratum k.  The
    # top stratum comes twice, so that the median falls in the middle of
    # stratum 4 and p90 in the middle of the top stratum, not on the edge
    # between two strata.
    cycle = tuple(range(8)) + (7,)
    digest_ops = 9
    tail_pct = 90.0
    GOLDEN = 0.6180339887498949

    def __init__(self, seed: int, stream: str = "main"):
        super().__init__(seed, stream)
        self.offset = self.rng.random()

    def warmup_ops(self) -> list[Op]:
        return [self.make(0, 0)]

    def make(self, slot, ordinal):
        rng = self.rng
        lo = 100 + 88 * slot
        # The family and the second label alternate by ordinal, and a follows a
        # golden-ratio sequence from a seeded start: every stratum fills evenly,
        # so the median of a few hundred jobs hardly moves from seed to seed.
        kind = ("Sp", "SO")[ordinal % 2]
        while True:
            labels = [("p", 1, rng.choice(TYPES))]
            if ordinal // 2 % 2:
                labels.append(("q", rng.randint(1, 2), rng.choice(TYPES)))
            sizes = {}
            for name, _, sd in labels:
                sizes[name] = distinct_sizes(rng, side_parity(kind, sd), rng.randint(1, 3), 9)
            parity = side_parity(kind, labels[0][2])
            u = (self.offset + ordinal * self.GOLDEN) % 1.0
            big = lo + int(u * 88)
            big += (big - parity) % 2
            sizes["p"] = sorted(sizes["p"] + [big])
            total = sum(dim * sum(sizes[name]) for name, dim, _ in labels)
            if kind == "Sp" and total % 2:
                continue
            family = kind if kind == "Sp" else ("SOodd" if total % 2 else "SOeven")
            break
        signs = random_signs(rng, labels, sizes)
        text = _doc("support", group=_group(family, total), blocks=blocks_json(labels, sizes, signs))
        return Op(slot, text, meta={"n": total, "sizes": sizes,
                                    "dims": {name: dim for name, dim, _ in labels}})

    @staticmethod
    def check(op, outcome):
        if outcome.kind is not None:
            return f"wide: error {outcome.body}"
        out, meta = outcome.result, op.meta
        if not all(out["checks"].values()):
            return f"wide: failed checks {out['checks']}"
        cusp = {}
        for name, a in out["cusp_blocks"]:
            cusp[name] = cusp.get(name, 0) + a
        rank = sum((sum(s) - cusp.get(name, 0)) // 2 for name, s in meta["sizes"].items())
        if len(out["gl_twists"]) != rank:
            return f"wide: {len(out['gl_twists'])} twists, torus rank {rank}"
        levi_rank = sum(int(k) for k in re.findall(r"GL_\d+\^(\d+)", out["levi"]))
        if levi_rank != rank:
            return f"wide: Levi {out['levi']} has torus rank {levi_rank}, expected {rank}"
        twist_dims = sum(2 * meta["dims"][name] for name, _ in out["gl_twists"])
        if twist_dims + out["cusp_group"]["N"] != meta["n"]:
            return f"wide: dimensions {twist_dims} + {out['cusp_group']['N']} != {meta['n']}"
        return None


WORKLOADS = {w.name: w for w in (Jobs, Sweep, Wide)}


def digest(bodies) -> str:
    h = hashlib.sha256()
    for body in bodies:
        h.update(body)
        h.update(b"\n")
    return h.hexdigest()
