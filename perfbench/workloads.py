"""Seeded input decks for the benchmark, with the answers each must produce.

Every document is built here from structure the benchmark chooses, so the
expected Jordan-Kronecker data and completeness verdicts are known by
construction and do not come from the program under test.  The block and
scrambling constructions follow jkpencil's canonical_pencil and
random_unimodular, but are written out here so that a change to the
program cannot change the inputs.

A deck is a list of `Case`s.  The same workload seed always gives the same
deck; the program sees only `Case.doc` (one JSON document) and `Case.seed`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

EIGENVALUE_POOL = [Fraction(v) for v in (-3, -2, -1, 0, 1, 2, 3, 5, 7)] + [
    Fraction(1, 2),
    Fraction(-2, 3),
]

COMPLETE, INCOMPLETE = "COMPLETE", "INCOMPLETE"


@dataclass(frozen=True)
class Case:
    """One analysis: a document, its --seed, and the ground truth the
    report is checked against."""

    name: str
    kind: str  # "pencil" or "lie"
    doc: dict
    seed: int
    expect: dict


# -- skew pencils -------------------------------------------------------------


def _zero(n):
    return [[Fraction(0)] * n for _ in range(n)]


def _pair(a, b, i, j, va, vb):
    a[i][j], a[j][i] = Fraction(va), -Fraction(va)
    b[i][j], b[j][i] = Fraction(vb), -Fraction(vb)


def _kronecker_block(k):
    size = 2 * k - 1
    a, b = _zero(size), _zero(size)
    for i in range(k - 1):
        a[i][k - 1 + i], a[k - 1 + i][i] = Fraction(1), Fraction(-1)
        b[i][k + i], b[k + i][i] = Fraction(1), Fraction(-1)
    return a, b


def _jordan_block(eigenvalue, half):
    """Finite block for a rational eigenvalue, or infinite when None."""
    a, b = _zero(2 * half), _zero(2 * half)
    for i in range(half):
        if eigenvalue is None:
            _pair(a, b, i, half + i, 1, 0)
        else:
            _pair(a, b, i, half + i, eigenvalue, 1)
        if i + 1 < half:
            if eigenvalue is None:
                b[i][half + i + 1], b[half + i + 1][i] = Fraction(1), Fraction(-1)
            else:
                a[i][half + i + 1], a[half + i + 1][i] = Fraction(1), Fraction(-1)
    return a, b


def canonical_pencil(kronecker, jordan):
    """Block-diagonal (A, B); jordan maps eigenvalue (None = infinity) to
    the list of its half-sizes."""
    blocks = [_kronecker_block(k) for k in kronecker]
    for eig, halves in jordan.items():
        blocks.extend(_jordan_block(eig, h) for h in halves)
    n = sum(len(ba) for ba, _ in blocks)
    a, b = _zero(n), _zero(n)
    offset = 0
    for ba, bb in blocks:
        for i in range(len(ba)):
            for j in range(len(ba)):
                a[offset + i][offset + j] = ba[i][j]
                b[offset + i][offset + j] = bb[i][j]
        offset += len(ba)
    return a, b


def scramble(a, b, rng):
    """(P^T A P, P^T B P) for a random unimodular P: a permutation, then n
    row shears by +-1 or +-2.  random_unimodular's default of 2n shears
    doubles the spread of analysis times between documents of one shape."""
    n = len(a)
    perm = list(range(n))
    rng.shuffle(perm)
    p = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            p[i][col] += c * p[j][col]

    cols = [[(k, p[k][j]) for k in range(n) if p[k][j]] for j in range(n)]

    def congruence(m):
        mp = [[sum(m[i][k] * c for k, c in cols[j]) for j in range(n)] for i in range(n)]
        return [[sum(c * mp[k][j] for k, c in cols[i]) for j in range(n)] for i in range(n)]

    return congruence(a), congruence(b)


def pencil_case(name, kronecker, jordan, rng) -> Case:
    a, b = scramble(*canonical_pencil(kronecker, jordan), rng)
    n = len(a)
    doc = {
        "dimension": n,
        "A": [[str(x) for x in row] for row in a],
        "B": [[str(x) for x in row] for row in b],
    }
    expect = {
        "dimension": n,
        "kronecker": sorted(kronecker),
        "jordan": {eig: sorted(h) for eig, h in jordan.items()},
        "core_dimension": sum(kronecker),
    }
    return Case(name, "pencil", doc, rng.randrange(1, 10**6), expect)


def _random_shape(rng, n_target):
    """Kronecker parameters and Jordan blocks filling n_target, drawn like
    the test suite's random_jk_spec: each step adds a Kronecker block
    (k <= 3) with probability 0.45, otherwise a Jordan block (half-size
    <= 3) with a slot 0..10 of the eigenvalue pool; blocks drawing the same
    slot share an eigenvalue.  random_jk_spec makes the eigenvalue infinite
    with probability 0.15; here it is always finite (see pencil_mixed_deck),
    but the draw is kept so that the shapes stay those the benchmark was
    measured with."""
    remaining = n_target
    kron, jordan = [], {}
    while remaining > 0:
        if remaining == 1:
            kron.append(1)
            break
        if rng.random() < 0.45:
            k = rng.randint(1, min((remaining + 1) // 2, 3))
            kron.append(k)
            remaining -= 2 * k - 1
        else:
            half = rng.randint(1, min(remaining // 2, 3))
            rng.random()
            slot = rng.randrange(len(EIGENVALUE_POOL))
            jordan.setdefault(slot, []).append(half)
            remaining -= 2 * half
    return kron, jordan


# A deck holds more distinct documents than one run gets through at the
# commit that defined the benchmark, so a run averages over many inputs; a
# faster program reaches further into it, and cycles back only at its end.
# Sizes and shapes repeat in short cycles so that every prefix is balanced.
DECK_CYCLES = 16

# Dimensions of one cycle of the pencil-mixed deck, small and large
# alternating.  Cost grows steeply with n, so the range is kept narrow
# enough that no few documents dominate a run.  At the commit that defined
# the benchmark the cycle's nine shapes took 0.19 to 0.75 s each, five of
# them 0.48 to 0.58 s, and the median analysis falls among those five.
MIXED_SIZES = (8, 13, 11, 10, 12, 9, 14, 11, 12)


def pencil_mixed_deck(seed: int) -> list[Case]:
    """One block shape per slot of MIXED_SIZES, the same in every cycle
    and for every seed: cost depends strongly on the shape, and a faster
    run that reached further into a deck of ever new shapes would see
    another mix of costs.  The seed picks the eigenvalues and the
    scrambling of each document.

    No block is infinite: with an infinite eigenvalue jk_invariants
    reparametrizes, and there it gives a wrong answer on some --seed
    values (the mu0-zero known defect below)."""
    rng = random.Random(f"pencil-mixed/{seed}")
    shapes = random.Random("pencil-mixed/shapes")
    cycle = [(n, *_random_shape(shapes, n)) for n in MIXED_SIZES]
    cases = []
    for t, (n, kron, slots) in enumerate(cycle * DECK_CYCLES):
        values = rng.sample(EIGENVALUE_POOL, len(EIGENVALUE_POOL))
        jordan = {values[slot]: halves for slot, halves in slots.items()}
        cases.append(pencil_case(f"mixed-{t:03d}-n{n}", kron, jordan, rng))
    return cases


# Shapes of one cycle of the pencil-corank deck: (Kronecker parameters,
# half-sizes of the finite Jordan blocks), n = 12 to 14.  Each has corank 2
# to 4 and at least two distinct finite eigenvalues, so the Pfaffian gcd
# never drops to 1 and the characteristic polynomial enumerates all C(n, r)
# principal Pfaffians.  Larger n would leave too few analyses per run for a
# tail percentile.
CORANK_SHAPES = (
    ((1, 1), (1, 1, 1, 1, 1)),
    ((1, 1, 1), (1, 1, 1, 1, 1)),
    ((1, 1, 1, 1), (1, 1, 1, 2)),
    ((1, 2), (1, 1, 1, 1, 1)),
    ((1, 1, 2), (1, 1, 1, 1)),
    ((1, 1), (1, 1, 2, 1, 1)),
)


def pencil_corank_deck(seed: int) -> list[Case]:
    rng = random.Random(f"pencil-corank/{seed}")
    cases = []
    for t, (kron, halves) in enumerate(CORANK_SHAPES * DECK_CYCLES):
        eigs = rng.sample(EIGENVALUE_POOL, 2)
        jordan: dict = {}
        for i, h in enumerate(halves):
            jordan.setdefault(eigs[i % 2], []).append(h)
        n = sum(2 * k - 1 for k in kron) + 2 * sum(halves)
        cases.append(pencil_case(f"corank-{t:03d}-n{n}", list(kron), jordan, rng))
    return cases


# -- Lie algebras ---------------------------------------------------------------


def _algebra(name, dim, table, fa, ftilde):
    """table maps (i, j), 0-based with i < j, to {k: c}: [e_i, e_j] = sum c e_k."""
    return {"name": name, "dim": dim, "table": table, "fa": fa, "ftilde": ftilde}


def abelian(n):
    return _algebra(f"abelian{n}", n, {}, COMPLETE, COMPLETE)


def heisenberg(m):
    """h_{2m+1}: [x_i, y_i] = z.  Verdicts as for heisenberg3."""
    table = {(i, m + i): {2 * m: 1} for i in range(m)}
    return _algebra(f"heisenberg{2 * m + 1}", 2 * m + 1, table, INCOMPLETE, INCOMPLETE)


def aff1():
    return _algebra("aff1", 2, {(0, 1): {1: 1}}, INCOMPLETE, COMPLETE)


def so3():
    table = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}
    return _algebra("so3", 3, table, COMPLETE, COMPLETE)


def sl2():
    table = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    return _algebra("sl2", 3, table, COMPLETE, COMPLETE)


def e3():
    """Rotations e_0..e_2, translations f_0..f_2: [e_i, f_j] = eps_ijk f_k."""
    table = {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}
    for i in range(3):
        for j in range(3):
            if i != j:
                k = 3 - i - j
                sign = 1 if (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)) else -1
                table[(i, 3 + j)] = {3 + k: sign}
    return _algebra("e3", 6, table, COMPLETE, COMPLETE)


def so4():
    """so(4) in the basis M_ab = E_ab - E_ba, a < b, in lexicographic order."""
    gens = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    index = {ab: t for t, ab in enumerate(gens)}
    table = {}
    for t1, (a, b) in enumerate(gens):
        for t2 in range(t1 + 1, len(gens)):
            c, d = gens[t2]
            coeffs: dict = {}
            # [M_ab, M_cd] = d_bc M_ad + d_ad M_bc - d_ac M_bd - d_bd M_ac
            for delta, (x, y) in ((b == c, (a, d)), (a == d, (b, c)), (-(a == c), (b, d)), (-(b == d), (a, c))):
                if delta and x != y:
                    k, sign = (index[(x, y)], 1) if x < y else (index[(y, x)], -1)
                    coeffs[k] = coeffs.get(k, 0) + int(delta) * sign
            coeffs = {k: v for k, v in coeffs.items() if v}
            if coeffs:
                table[(t1, t2)] = coeffs
    return _algebra("so4", 6, table, COMPLETE, COMPLETE)


def direct_sum(name, *parts):
    """A direct sum is complete for a family iff every summand is."""
    table, offset = {}, 0
    for g in parts:
        for (i, j), coeffs in g["table"].items():
            table[(i + offset, j + offset)] = {k + offset: c for k, c in coeffs.items()}
        offset += g["dim"]

    def verdict(key):
        return COMPLETE if all(g[key] == COMPLETE for g in parts) else INCOMPLETE

    return _algebra(name, offset, table, verdict("fa"), verdict("ftilde"))


def lie_algebras():
    """The verdict table: the catalog algebras, then larger sparse ones of
    dimension 5 to 9.

    Catalog verdicts follow the acceptance fixtures and the Lie-algebra
    tests: semisimple and abelian algebras and e3 are complete for both
    families; heisenberg3 for neither; aff1 has a non-constant
    semi-invariant (F_a incomplete) but a complete extended family.
    """
    catalog = [
        abelian(3),
        abelian(4),
        heisenberg(1),
        aff1(),
        direct_sum("aff1_abelian2", aff1(), abelian(2)),
        so3(),
        sl2(),
        e3(),
        so4(),
    ]
    larger = [
        heisenberg(2),
        heisenberg(3),
        heisenberg(4),
        direct_sum("heisenberg3+abelian5", heisenberg(1), abelian(5)),
        direct_sum("heisenberg5+abelian3", heisenberg(2), abelian(3)),
        direct_sum("heisenberg7+abelian2", heisenberg(3), abelian(2)),
        direct_sum("aff1+abelian6", aff1(), abelian(6)),
        direct_sum("so3+so3", so3(), so3()),
        direct_sum("so3+so3+so3", so3(), so3(), so3()),
        direct_sum("e3+aff1", e3(), aff1()),
        direct_sum("e3+so3", e3(), so3()),
        direct_sum("e3+heisenberg3", e3(), heisenberg(1)),
        direct_sum("so4+aff1", so4(), aff1()),
    ]
    return catalog + larger


def lie_doc(g) -> dict:
    brackets = [
        {"i": i + 1, "j": j + 1, "coeffs": {str(k + 1): str(c) for k, c in sorted(coeffs.items())}}
        for (i, j), coeffs in sorted(g["table"].items())
    ]
    return {"dimension": g["dim"], "name": g["name"], "brackets": brackets}


# One cycle of the lie-algebras deck, small and large alternating.  It holds
# only algebras with at most one non-abelian summand, heisenberg or aff1,
# whose generic pencils have only Kronecker blocks of size 1 and Jordan
# blocks of half-size 1.  There a non-generic sample pair changes neither
# the shape nor the verdicts.  On so3, sl2, e3, so4 and every sum of two
# non-abelian summands it can (the so3-unstable and sl2-semiinvariant known
# defects below), so those stay in the verdict table but not in the deck.
# heisenberg7 comes four times, so the median analysis falls inside its
# cluster of costs rather than in the gap between small and large algebras,
# and heisenberg7+abelian2, the slowest, twice, so the tail percentile falls
# inside its cluster.  Each document gets its own --seed, so each cycle
# samples new frozen and evaluation points.
LIE_CYCLE = (
    "heisenberg7", "abelian3", "heisenberg7+abelian2", "aff1",
    "heisenberg9", "heisenberg7", "heisenberg5+abelian3", "heisenberg3",
    "heisenberg7+abelian2", "abelian4", "heisenberg3+abelian5", "heisenberg7",
    "aff1+abelian6", "aff1_abelian2", "heisenberg5", "heisenberg7",
)


def lie_case(name, g, seed) -> Case:
    expect = {"dimension": g["dim"], "fa": g["fa"], "ftilde": g["ftilde"]}
    return Case(name, "lie", lie_doc(g), seed, expect)


def lie_deck(seed: int) -> list[Case]:
    rng = random.Random(f"lie-algebras/{seed}")
    table = {g["name"]: g for g in lie_algebras()}
    return [
        lie_case(f"lie-{t:03d}-{name}", table[name], rng.randrange(1, 10**6))
        for t, name in enumerate(LIE_CYCLE * DECK_CYCLES)
    ]


DECKS = {
    "pencil-mixed": pencil_mixed_deck,
    "pencil-corank": pencil_corank_deck,
    "lie-algebras": lie_deck,
}


# -- known defects ----------------------------------------------------------------
# Inputs on which the program, at the commit that defined the benchmark,
# gives a wrong answer or exits 3.  Their classes are left out of the decks
# above; run.py replays these after every run and prints whether each still
# fails, and test_perfbench.py holds them as strict xfails.


def known_defects() -> list[tuple[str, str, Case]]:
    """(id, what goes wrong, case) for each known defect."""
    table = {g["name"]: g for g in lie_algebras()}
    mu0 = pencil_case("mu0-zero", [1], {Fraction(2): [1], None: [2]}, random.Random(1))
    return [
        (
            "mu0-zero",
            "jk_invariants reparametrizes with mu0 = 0, so the pencil (A, A + 0*B) "
            "reports every Jordan block at infinity",
            Case(mu0.name, mu0.kind, mu0.doc, 33, mu0.expect),
        ),
        (
            "so3-unstable",
            "jk_invariants_generic keeps a non-generic max-rank sample of so3, so the "
            "generic invariants are unstable and F_a is INDETERMINATE",
            lie_case("so3-unstable", table["so3"], 451812),
        ),
        (
            "sl2-semiinvariant",
            "the semi-invariant identity is asserted at the non-generic x = 0 of sl2, "
            "where it does not hold, so lie analyze exits 3",
            lie_case("sl2-semiinvariant", table["sl2"], 517691),
        ),
    ]
