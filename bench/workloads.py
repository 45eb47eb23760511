"""Workload pools and the seeded input generator.

Pure Python: nothing here imports edimkit, so the inputs (and the expected
answers they are checked against) never come from the program under test.

A pool is fixed per workload.  The seed only changes presentation: it
relabels permutation points, reorders generators and product factors, adds
one redundant generator per permutation group, reorders polynomial terms, and
shuffles the query order.  None of that changes a correct answer, so one
expected file serves every seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("chartab-cold", "engine-warm", "perm-structure", "mhom-maps")

# ---------------------------------------------------------------------------
# permutation groups, as (degree, generators in one-line notation)


def _cycles(degree, *cycles):
    perm = list(range(degree))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            perm[a] = cyc[(i + 1) % len(cyc)]
    return perm


def _compose(p, q):
    """Apply p, then q."""
    return [q[x] for x in p]


def symmetric(n):
    return n, [_cycles(n, [0, 1]), _cycles(n, list(range(n)))]


def alternating(n):
    long = list(range(n)) if n % 2 else list(range(1, n))
    return n, [_cycles(n, [0, 1, 2]), _cycles(n, long)]


def dihedral(n):
    """Order 2n, acting on the n vertices of a polygon."""
    return n, [_cycles(n, list(range(n))), [(-i) % n for i in range(n)]]


def _primitive_root(p):
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1
               for q in range(2, p) if (p - 1) % q == 0 and
               all(q % r for r in range(2, q))):
            return g
    return 1


def affine_line(p):
    """AGL(1, p) = {x -> a x + b} on the p points of F_p."""
    g = _primitive_root(p)
    return p, [[(x + 1) % p for x in range(p)], [(g * x) % p for x in range(p)]]


def wreath(base, k):
    """base wr S_k in its imprimitive action on k blocks of base's points."""
    d, gens = base
    n = d * k
    out = [[b * d + gen[i] if b == 0 else b * d + i
            for b in range(k) for i in range(d)] for gen in gens]
    top = _cycles(k, list(range(k)))
    swap = _cycles(k, [0, 1])
    for t in ([top, swap] if k > 2 else [swap]):
        out.append([t[b] * d + i for b in range(k) for i in range(d)])
    return n, out


def sl2_on_vectors(p):
    """SL(2, p) acting on the p^2 - 1 nonzero vectors of F_p^2."""
    pts = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    idx = {v: i for i, v in enumerate(pts)}

    def act(m):
        (a, b), (c, d) = m
        return [idx[((a * x + b * y) % p, (c * x + d * y) % p)] for x, y in pts]

    return len(pts), [act(((1, 1), (0, 1))), act(((0, p - 1), (1, 0)))]


def psl2_on_line(p):
    """PSL(2, p) acting on the p + 1 points of the projective line."""
    inf = p

    def mobius(a, b, c, d):
        out = []
        for x in range(p + 1):
            if x == inf:
                num, den = a, c
            else:
                num, den = (a * x + b) % p, (c * x + d) % p
            out.append(inf if den == 0 else (num * pow(den, -1, p)) % p)
        return out

    return p + 1, [mobius(1, 1, 0, 1), mobius(0, p - 1, 1, 0)]


def regular(group):
    """Right regular representation of a permutation group."""
    d, gens = group
    ident = tuple(range(d))
    elems = [ident]
    index = {ident: 0}
    i = 0
    while i < len(elems):
        for g in gens:
            w = tuple(_compose(list(elems[i]), g))
            if w not in index:
                index[w] = len(elems)
                elems.append(w)
        i += 1
    return len(elems), [[index[tuple(_compose(list(x), g))] for x in elems]
                        for g in gens]


def direct(*groups):
    """Direct product acting on the disjoint union of the point sets."""
    n = sum(d for d, _ in groups)
    out = []
    off = 0
    for d, gens in groups:
        for g in gens:
            out.append(list(range(off)) + [off + x for x in g] +
                       list(range(off + d, n)))
        off += d
    return n, out


def quaternion8():
    """Q8 in its regular action: i and j as permutations of the 8 units."""
    # units ordered 1, i, j, k, -1, -i, -j, -k; right multiplication
    mul_i = [1, 4, 7, 2, 5, 0, 3, 6]   # x -> x*i
    mul_j = [2, 3, 4, 5, 6, 7, 0, 1]   # x -> x*j
    return 8, [mul_i, mul_j]


def heisenberg3():
    """Extraspecial 3^(1+2) of exponent 3 acting on its 27 elements."""
    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    idx = {e: i for i, e in enumerate(elems)}

    def right(y):
        a2, b2, c2 = y
        return [idx[((a + a2) % 3, (b + b2) % 3, (c + c2 + a * b2) % 3)]
                for a, b, c in elems]

    return 27, [right((1, 0, 0)), right((0, 1, 0))]


PERM_GROUPS = {
    "S3": lambda: symmetric(3),
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "S6": lambda: symmetric(6),
    "A4": lambda: alternating(4),
    "A5": lambda: alternating(5),
    "A6": lambda: alternating(6),
    "D5": lambda: dihedral(5),
    "D6": lambda: dihedral(6),
    "D8": lambda: dihedral(8),
    "D9": lambda: dihedral(9),
    "D10": lambda: dihedral(10),
    "AGL1_5": lambda: affine_line(5),
    "AGL1_7": lambda: affine_line(7),
    "AGL1_11": lambda: affine_line(11),
    "AGL1_13": lambda: affine_line(13),
    "S2wrS3": lambda: wreath(symmetric(2), 3),
    "S3wrS2": lambda: wreath(symmetric(3), 2),
    "S2wrS4": lambda: wreath(symmetric(2), 4),
    "PSL2_7": lambda: psl2_on_line(7),
    "PSL2_11": lambda: psl2_on_line(11),
    "SL2_5": lambda: sl2_on_vectors(5),
    "SL2_7": lambda: sl2_on_vectors(7),
    "reg_Q8": lambda: quaternion8(),
    "reg_D4": lambda: regular(dihedral(4)),
    "reg_A4": lambda: regular(alternating(4)),
    "reg_S4": lambda: regular(symmetric(4)),
    "reg_Heis3": lambda: heisenberg3(),
    "AGL1_17": lambda: affine_line(17),
    "AGL1_19": lambda: affine_line(19),
    "AGL1_67": lambda: affine_line(67),
    "D4": lambda: dihedral(4),
    "D7": lambda: dihedral(7),
    "D12": lambda: dihedral(12),
    "PSL2_5": lambda: psl2_on_line(5),
    "SL2_3": lambda: sl2_on_vectors(3),
    "dir_S4xS3": lambda: direct(symmetric(4), symmetric(3)),
    "dir_A4xA4": lambda: direct(alternating(4), alternating(4)),
    "reg_Q8xC3": lambda: regular(direct(quaternion8(), (3, [[1, 2, 0]]))),
    "reg_C2xC2xC3": lambda: regular(direct((2, [[1, 0]]), (2, [[1, 0]]),
                                           (3, [[1, 2, 0]]))),
    "reg_C4xC2": lambda: regular(direct((4, [[1, 2, 3, 0]]), (2, [[1, 0]]))),
    "reg_D5": lambda: regular(dihedral(5)),
    "reg_S3": lambda: regular(symmetric(3)),
}


# ---------------------------------------------------------------------------
# seeded presentations


def present_permutation(group, rng):
    """Relabel the points, add one redundant generator, shuffle the list."""
    degree, gens = group
    sigma = list(range(degree))
    rng.shuffle(sigma)

    def relabel(g):
        out = [0] * degree
        for i, x in enumerate(g):
            out[sigma[i]] = sigma[x]
        return out

    gens = [relabel(g) for g in gens]
    a, b = rng.choice(gens), rng.choice(gens)
    extra = _compose(a, b)
    if extra == list(range(degree)):
        extra = list(a)
    gens.insert(rng.randrange(len(gens) + 1), extra)
    rng.shuffle(gens)
    return {"kind": "permutation", "degree": degree, "generators": gens}


def present_named(factors, rng):
    """A named group, or a product of named factors in a seeded order."""
    if len(factors) == 1:
        return {"kind": "named", "name": factors[0]}
    order = list(factors)
    rng.shuffle(order)
    return {"kind": "named", "product": [{"kind": "named", "name": f}
                                         for f in order]}


# ---------------------------------------------------------------------------
# pools

# chartab --full, cold: named products with 10-33 classes, plus SL(2, 7) on
# the 48 nonzero vectors of F_7^2 (conductor 168).  Cheap and dear tables are
# mixed so a pass takes a few seconds; each group is one query.
CHARTAB_POOL = [
    "C2xS4", "C2xD4", "C3xA4", "C2xA5", "C2xQ8", "C3xD4", "C3xQ8", "C3xS4",
    "C2xD6", "S3xD4", "S3xQ8", "S3xA4", "A4xD4", "C4xS4", "C4xA4",
    "C2xC2xS4", "D5xD5", "Q12xS3", "D7xS3", "A4xA4", "C4xC4", "D5xS3",
    "A5xC3", "S5xC2", "S3xS3xS3", "S4xS4", "Heis3xC3", "SL2_7",
    "C4xD4", "C4xQ8", "C2xC2xD4", "C2xC2xQ8", "D5xC3", "D6xC3", "Q12xC3",
    "Q12xC2", "D7xC2", "C5xS3", "D5xD4", "D6xS3", "C2xC2xA4",
]

# (query id, verb, factors, field, extra arguments)
_C1 = [(f"c1_{'x'.join([f'C{p}'] * n)}_Q(zeta_{p})", "edim",
        [f"C{p}"] * n, f"Q(zeta_{p})", []) for p in (2, 3, 5) for n in range(1, 5)]
ENGINE_POOL = _C1 + [
    ("c2_edim_Q8", "edim", ["Q8"], "Q(zeta_4)", []),
    ("c2_rdim_Q8", "rdim", ["Q8"], "Q(zeta_4)", []),
    ("c2_edim_D4", "edim", ["D4"], "Q(zeta_4)", []),
    ("c2_rdim_D4", "rdim", ["D4"], "Q(zeta_4)", []),
    ("c2_edim_Heis3", "edim", ["Heis3"], "Q(zeta_3)", []),
    ("c2_rdim_Heis3", "rdim", ["Heis3"], "Q(zeta_3)", []),
    ("c2_covdim_Q8", "covdim", ["Q8"], "Q(zeta_4)", []),
    ("c2_covdim_D4", "covdim", ["D4"], "Q(zeta_4)", []),
    ("c3_edim_S3", "edim", ["S3"], "Q", []),
    ("c3_covdim_S3", "covdim", ["S3"], "Q", []),
    ("c4_edim_Q8xC3", "edim", ["Q8", "C3"], "Q(zeta_12)", []),
    ("c4_covdim_Q8xC3", "covdim", ["Q8", "C3"], "Q(zeta_12)", []),
    ("c4_rdim_Q8xC3", "rdim", ["Q8", "C3"], "Q(zeta_12)", []),
    ("c5_rdim_Q8xD4", "rdim", ["Q8", "D4"], "Q(zeta_4)", []),
    ("c5_edim_Q8xD4", "edim", ["Q8", "D4"], "Q(zeta_4)", []),
    ("c11_C4", "edim", ["C4"], "Q(zeta_12)", []),
    ("c11_Q8xC2", "edim", ["Q8", "C2"], "Q(zeta_12)", []),
    ("c11_D4xC2", "edim", ["D4", "C2"], "Q(zeta_12)", []),
    ("c11_Q8xC4", "edim", ["Q8", "C4"], "Q(zeta_12)", []),
    ("c11_Heis3xC3", "edim", ["Heis3", "C3"], "Q(zeta_12)", []),
    ("c11_rdim_Q8xC2", "rdim", ["Q8", "C2"], "Q(zeta_12)", []),
    ("c11_rdim_D4xC2", "rdim", ["D4", "C2"], "Q(zeta_12)", []),
    ("r8_S3xS3", "edim", ["S3", "S3"], "Q", []),
    ("r8_Q8xS3", "edim", ["Q8", "S3"], "Q", []),
    ("r8_S4xS4", "edim", ["S4", "S4"], "Q", []),
    ("r8_A5xS3", "edim", ["A5", "S3"], "Q", []),
    ("r8_S3xS3xS3", "edim", ["S3", "S3", "S3"], "Q", []),
    ("r10_Q8_char2", "edim", ["Q8"], "char=2;zeta=1", []),
    ("r10_Q8xC2_char2", "edim", ["Q8", "C2"], "char=2;zeta=1", []),
    ("r10_Heis3_char3", "edim", ["Heis3"], "char=3;zeta=4", []),
    ("r10_C3xS3_char3", "edim", ["C3", "S3"], "char=3;zeta=4", []),
    ("r11_S3xS3_facts", "edim", ["S3", "S3"], "Q", ["--facts", "{facts}"]),
    ("oos_rdim_S3_Q", "rdim", ["S3"], "Q", []),
    ("oos_rdim_Q8_Q", "rdim", ["Q8"], "Q", []),
]
# the literature interval the R11 query injects, for the group it names
FACT = {"query": "r11_S3xS3_facts", "field": "Q", "lower": 2, "upper": 2,
        "source": "ed_Q(S3 x S3) = 2: it contains C2 x C2 and ed_Q(S3) = 1"}

# invariants: dense-table groups up to order 720, and AGL(1, 67) (order
# 4422), which is above the dense-table limit and runs on the permutation
# backend.
PERM_POOL = [
    "S3", "S4", "S5", "S6", "A4", "A5", "A6", "D5", "D6", "D8", "D9", "D10",
    "AGL1_5", "AGL1_7", "AGL1_11", "AGL1_13", "AGL1_67", "S2wrS3", "S3wrS2",
    "S2wrS4", "PSL2_7", "PSL2_11", "SL2_5", "SL2_7", "reg_Q8", "reg_D4",
    "reg_A4", "reg_S4", "reg_Heis3", "reg_Q8xC3", "D4", "D7", "D12",
    "AGL1_17", "AGL1_19", "PSL2_5", "SL2_3", "reg_C2xC2xC3", "reg_C4xC2",
    "reg_D5", "reg_S3", "dir_S4xS3", "dir_A4xA4",
]


MHOM_POOL_SIZE = 240
MHOM_POOL_SEED = 20080312   # fixes the maps; the run seed only re-presents them


# ---------------------------------------------------------------------------
# graded maps with a known leading part


def _monomial(rng, dims, weight):
    """Random exponent vector whose degree in block b is weight[b]."""
    mono = []
    for d, w in zip(dims, weight):
        cuts = sorted(rng.randint(0, w) for _ in range(d - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [w])]
        mono.extend(parts)
    return tuple(mono)


def _add_terms(poly, rng, dims, weight, count):
    for _ in range(count):
        mono = _monomial(rng, dims, weight)
        poly[mono] = poly.get(mono, 0) + rng.choice([-3, -2, -1, 1, 2, 3, 5])
        if poly[mono] == 0:
            del poly[mono]


def _higher(rng, weight):
    while True:
        delta = [rng.randint(0, 2) for _ in weight]
        if any(delta):
            return [w + d for w, d in zip(weight, delta)]


def rational_rank(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def graded_map(rng):
    """A graded map whose minimal-weight part is known by construction.

    Every term of a target block has weight chi_j + delta with delta >= 0
    componentwise, and the denominator's terms have weight chi_0 + delta, so
    the chi_j and chi_0 parts are the leading parts for every one-parameter
    subgroup with positive weights.
    """
    src = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
    tgt = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
    m = len(src)
    nums, lead, columns, zero = [], [], [], []
    for j, d in enumerate(tgt):
        if rng.random() < 0.12:
            nums.extend({} for _ in range(d))
            lead.extend({} for _ in range(d))
            columns.append(None)
            zero.append(j)
            continue
        chi = [rng.randint(0, 4) for _ in range(m)]
        for t in range(d):
            part = {}
            while t == 0 and not part:
                _add_terms(part, rng, src, chi, rng.randint(1, 3))
            if t > 0:
                _add_terms(part, rng, src, chi, rng.randint(0, 3))
            full = dict(part)
            for _ in range(rng.randint(2, 6)):
                _add_terms(full, rng, src, _higher(rng, chi), 1)
            lead.append(part)
            nums.append(full)
        columns.append(chi)
    chi0 = [rng.randint(0, 1) for _ in range(m)]
    den_lead = {}
    while not den_lead:
        _add_terms(den_lead, rng, src, chi0, rng.randint(1, 2))
    den = dict(den_lead)
    for _ in range(rng.randint(0, 2)):
        _add_terms(den, rng, src, _higher(rng, chi0), 1)
    matrix = [[0 if c is None else c[i] - chi0[i] for c in columns]
              for i in range(m)]
    weights = [w for c in columns if c for w in c] + chi0
    base = 3 + max(weights)   # every occurring weight entry is < base
    return {
        "src": src, "tgt": tgt, "nums": nums, "den": den,
        "expect": {"H": lead, "denominator": den_lead, "M": matrix,
                   "zero_columns": zero, "rank": rational_rank(matrix)},
        "lambda": ",".join(str(base ** i) for i in range(m)),
    }


def render(poly, names, rng):
    """Polynomial text with seeded term and factor order."""
    if not poly:
        return "0"
    terms = []
    for mono, c in poly.items():
        factors = [n if e == 1 else f"{n}^{e}"
                   for n, e in zip(names, mono) if e]
        rng.shuffle(factors)
        terms.append("*".join([str(c)] + factors))
    rng.shuffle(terms)
    return " + ".join(terms)


def _poly_json(poly):
    return sorted([list(mono), c] for mono, c in poly.items())


# ---------------------------------------------------------------------------
# inputs for one run


def _group_spec(name, rng):
    if name in PERM_GROUPS:
        return present_permutation(PERM_GROUPS[name](), rng)
    return present_named(name.split("x"), rng)


def build(workload, seed, workdir, expected):
    """Write the seed's presentation of the pool into workdir; return its
    queries.

    A query is {"id", "argv", "expect"}; "{cache}" and "{facts}" in argv
    stand for paths that the runner fills in.
    """
    rng = random.Random(f"{workload}:{seed}")
    workdir = Path(workdir)
    queries = []

    def write(name, data):
        path = workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    if workload == "chartab-cold":
        for name in CHARTAB_POOL:
            path = write(f"{name}.json", _group_spec(name, rng))
            queries.append({"id": name,
                            "argv": ["chartab", path, "--full",
                                     "--cache-dir", "{cache}"],
                            "expect": {"chartab": name.split("x")}})
    elif workload == "engine-warm":
        for i, (qid, verb, factors, field, extra) in enumerate(ENGINE_POOL):
            path = write(f"q{i:02d}.json", present_named(factors, rng))
            queries.append({"id": qid,
                            "argv": [verb, path, "--field", field] + extra,
                            "expect": {"engine": expected["engine"][qid]}})
    elif workload == "perm-structure":
        for name in PERM_POOL:
            path = write(f"{name}.json", _group_spec(name, rng))
            queries.append({"id": name, "argv": ["invariants", path],
                            "expect": {"structure": expected["structure"][name]}})
    elif workload == "mhom-maps":
        pool_rng = random.Random(MHOM_POOL_SEED)
        for i in range(MHOM_POOL_SIZE):
            gm = graded_map(pool_rng)
            # named here and passed as source_variables, so the output's
            # names are the ones the check parses
            names = [f"v{b}_{t}" for b, d in enumerate(gm["src"])
                     for t in range(d)]
            data = {"source_blocks": gm["src"], "target_blocks": gm["tgt"],
                    "source_variables": names,
                    "numerators": [render(p, names, rng) for p in gm["nums"]],
                    "denominator": render(gm["den"], names, rng)}
            path = write(f"map{i:03d}.json", data)
            argv = ["mhom", "homogenize", path]
            if i % 2:
                argv += ["--lambda", gm["lambda"]]
            exp = gm["expect"]
            queries.append({"id": f"map{i:03d}", "argv": argv, "expect": {
                "mhom": {"names": names,
                         "H": [_poly_json(p) for p in exp["H"]],
                         "denominator": _poly_json(exp["denominator"]),
                         "M": exp["M"], "zero_columns": exp["zero_columns"],
                         "rank": exp["rank"]}}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return queries


def fact_store(fingerprint):
    """The facts file for the R11 query, keyed by the group's fingerprint."""
    return [{"group": fingerprint, "field": FACT["field"],
             "lower": FACT["lower"], "upper": FACT["upper"],
             "source": FACT["source"]}]


# a few queries of each pool, for the benchmark's own tests
SMOKE = {
    "chartab-cold": ["C2xS4", "SL2_7"],
    "engine-warm": ["c1_C2xC2_Q(zeta_2)", "c2_rdim_Q8", "c3_covdim_S3",
                    "r8_S3xS3", "oos_rdim_S3_Q"],
    "perm-structure": ["S4", "AGL1_7", "reg_Q8"],
    "mhom-maps": ["map000", "map001"],
}
