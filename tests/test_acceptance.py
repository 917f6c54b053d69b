"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; all tolerances are exact (rational arithmetic throughout).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from jkpencil import cli
from jkpencil.liealg import (
    fa_completeness,
    ftilde_completeness,
    fundamental_semiinvariant,
    jk_invariants_generic,
    lie_pencil,
)
from jkpencil.linalg import kernel_basis, rank, subspace_sum
from jkpencil.pencil import (
    INFINITY,
    JKInvariants,
    RegularValueSampler,
    SkewPencil,
    canonical_pencil,
    characteristic_polynomial,
    congruence_transform,
    isotropy_certificate,
    jk_invariants,
    pencil_rank,
)
from jkpencil.poisson import (
    COMPLETE,
    INCOMPLETE,
    completeness_check,
    eigenvalue_lemma_check,
    involution_check,
    sample_generic_point,
)
from jkpencil.structure import abelian, aff1, catalog, e3, heisenberg3, so3
from jkpencil.unipoly import UniPoly

import conftest
from conftest import (
    RandomRegularValueSampler,
    pfaffian_gcd,
    random_jk_spec,
    random_unimodular,
    recursion_charpoly_check,
)

SUITE_SEED = 20240
SUITE_SIZE = 200


def _verdict(criterion: int, passed: bool, details: str):
    line = f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {details}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, details


@pytest.fixture(scope="module")
def roundtrip_suite():
    """Criterion-1 instances: spec, canonical pencil, scrambled pencil,
    recovered invariants.  Shared by criteria 1-5."""
    rng = random.Random(SUITE_SEED)
    instances = []
    start = time.time()
    for i in range(SUITE_SIZE):
        spec = random_jk_spec(rng, max_dim=14)
        p = canonical_pencil(spec)
        q = congruence_transform(p, random_unimodular(p.n, rng))
        inv = jk_invariants(q)
        instances.append((spec, p, q, inv))
    # guaranteed coverage: pure-Jordan instances with invertible B
    for i in range(10):
        while True:
            spec = random_jk_spec(rng, max_dim=10, allow_infinity=False)
            if spec.jordan:
                break
        spec = JKInvariants.from_blocks((), spec.jordan)
        p = canonical_pencil(spec)
        q = congruence_transform(p, random_unimodular(p.n, rng))
        inv = jk_invariants(q)
        instances.append((spec, p, q, inv))
    elapsed = time.time() - start
    return instances, elapsed


def test_criterion_1_canonical_roundtrip(roundtrip_suite):
    instances, elapsed = roundtrip_suite
    mismatches = [
        (spec, inv) for spec, _, _, inv in instances if inv != spec
    ]
    has_infinity = sum(
        1
        for spec, _, _, _ in instances
        if any(g.descriptor is INFINITY for g in spec.jordan)
    )
    mixed = sum(
        1 for spec, _, _, _ in instances if spec.kronecker and spec.jordan
    )
    ok = not mismatches and len(instances) >= 200 and elapsed < 120
    _verdict(
        1,
        ok,
        f"jk_invariants . congruence . canonical identity on "
        f"{len(instances) - len(mismatches)}/{len(instances)} specs "
        f"({has_infinity} with infinite blocks, {mixed} mixed) in {elapsed:.1f}s",
    )


def test_criterion_2_charpoly_dual_algorithm(roundtrip_suite):
    instances, _ = roundtrip_suite
    rng = random.Random(SUITE_SEED + 1)
    checked = 0
    for spec, _, q, inv in instances:
        r = pencil_rank(q)
        if rank(q.b) == r:
            target = q
            target_inv = inv
        else:
            # reparametrize to a regular-B pencil, then compare there
            sampler = RandomRegularValueSampler(q, rng)
            target = SkewPencil(q.a, q.member(sampler.draw()))
            target_inv = jk_invariants(target)
        cp = characteristic_polynomial(target)
        recon = UniPoly.one()
        for group in target_inv.jordan:
            assert group.descriptor is not INFINITY
            for half in group.half_sizes:
                recon = recon * group.descriptor**half
        oracle = pfaffian_gcd(target)
        assert oracle == cp.poly == recon.monic(), f"mismatch on spec {spec}"
        checked += 1
    _verdict(
        2,
        checked == len(instances),
        f"Pfaffian-gcd oracle equals the Smith-form characteristic polynomial "
        f"and the Jordan reconstruction on {checked} instances",
    )


def test_criterion_3_paper_identities(roundtrip_suite):
    instances, _ = roundtrip_suite
    # (a) single Jordan block gives (lambda - lambda0)^p
    for lam0, half in ((Fraction(7), 1), (Fraction(-3), 2), (Fraction(1, 2), 3)):
        spec = JKInvariants.from_blocks([], [(UniPoly.linear(lam0), (half,))])
        cp = characteristic_polynomial(canonical_pencil(spec))
        assert cp.poly == UniPoly.linear(lam0) ** half
    # (b) det(B^-1 A - lambda I) = p_L(lambda)^2 whenever B is invertible
    recursion_checked = 0
    for _, _, q, _ in instances:
        if rank(q.b) == q.n:
            assert recursion_charpoly_check(q)
            recursion_checked += 1
    # (c) dim K = n - r/2 - N exactly, on every instance (N counts all
    # Jordan half-sizes, the infinite group included)
    for _, _, q, inv in instances:
        r = pencil_rank(q)
        jordan_degree = sum(g.degree * sum(g.half_sizes) for g in inv.jordan)
        assert inv.core_dim == q.n - r // 2 - jordan_degree
        if rank(q.b) == r:  # no infinite group: N is the degree
            assert characteristic_polynomial(q).degree == jordan_degree
    _verdict(
        3,
        recursion_checked > 0,
        f"block charpoly, recursion identity ({recursion_checked} invertible-B "
        f"instances), and core dimension formula all exact",
    )


def test_criterion_4_bi_isotropy(roundtrip_suite):
    instances, _ = roundtrip_suite
    total_pairings = 0
    violations = 0
    for i, (_, _, q, _) in enumerate(instances):
        cert = isotropy_certificate(q)
        total_pairings += cert.pairings
        if not cert.passed:
            violations += 1
    for g, a in (
        (heisenberg3(), [0, 0, 1]),
        (so3(), [1, 2, 3]),
        (aff1(), [0, 1]),
        (e3(), [1, 0, 0, 0, 0, 1]),
    ):
        pencil = lie_pencil(g, a).pencil
        for s in range(3):
            x0 = sample_generic_point(pencil, seed=s)
            cert = involution_check(pencil, x0)
            total_pairings += cert.pairings
            if not cert.passed:
                violations += 1
    _verdict(
        4,
        violations == 0 and total_pairings >= 10_000,
        f"{total_pairings} exact pairings under both forms, {violations} violations",
    )


def test_criterion_5_core_stabilization(roundtrip_suite):
    instances, _ = roundtrip_suite
    for i, (spec, _, q, _) in enumerate(instances):
        d_bound = max(spec.kronecker, default=0)
        sampler = RegularValueSampler(q)
        core = subspace_sum(
            kernel_basis(q.member(sampler.draw())), kernel_basis(q.member(sampler.draw()))
        )
        for _ in range(max(d_bound - 2, 0)):
            core = subspace_sum(core, kernel_basis(q.member(sampler.draw())))
        assert core.dim == spec.core_dim, f"not stabilized within D steps: {spec}"
        for _ in range(3):
            core = subspace_sum(core, kernel_basis(q.member(sampler.draw())))
        assert core.dim == spec.core_dim, f"core grew after D steps: {spec}"
    _verdict(
        5,
        True,
        f"kernel sums reach dim K within D regular values and stay there "
        f"on {len(instances)} instances",
    )


def test_criterion_6_lie_fixtures():
    start = time.time()
    failures = []

    def check(cond, label):
        if not cond:
            failures.append(label)

    rep = jk_invariants_generic(so3(), seed=SUITE_SEED)
    check(rep.stable and not rep.has_jordan_blocks, "so3 Kronecker type")
    check(fa_completeness(so3(), rep) == COMPLETE, "so3 F_a COMPLETE")

    rep = jk_invariants_generic(e3(), seed=SUITE_SEED)
    check(rep.stable and not rep.has_jordan_blocks, "e3 Kronecker type")
    check(fa_completeness(e3(), rep) == COMPLETE, "e3 F_a COMPLETE")

    h3 = ftilde_completeness(heisenberg3(), [0, 0, 1], seed=SUITE_SEED)
    check(h3.verdict == INCOMPLETE, "h3 ftilde INCOMPLETE")
    check("dp_0 in K" in h3.witnesses, "h3 witness dp_0 in K")

    check(
        ftilde_completeness(aff1(), [0, 1], seed=SUITE_SEED).verdict
        == COMPLETE,
        "aff1 ftilde COMPLETE",
    )

    for n in (3, 4, 5):
        rep = jk_invariants_generic(abelian(n), samples=3, seed=SUITE_SEED)
        check(rep.representative.kronecker == (1,) * n, f"abelian({n}) trivial blocks")

    elapsed = time.time() - start
    _verdict(
        6,
        not failures and elapsed < 60,
        f"so3/e3/h3/aff1/abelian fixtures exact in {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_7_semiinvariant_identity():
    # p_pencil(lambda) = monic(p_g(x - lambda a)) at 3 random pairs per
    # catalog algebra (A - lambda*B eigenvalue convention; ledgered)
    rng = random.Random(SUITE_SEED + 2)
    algebras = catalog()
    for g in algebras:
        p_g = fundamental_semiinvariant(g)  # identity asserted internally too
        r = g.generic_rank()
        done = 0
        while done < 3:
            x0 = [Fraction(rng.randint(-9, 9)) for _ in range(g.dim)]
            a0 = [Fraction(rng.randint(-9, 9)) for _ in range(g.dim)]
            frozen = g.frozen_matrix(a0)
            if rank(frozen) != r:
                continue
            sp = SkewPencil(g.frozen_matrix(x0), frozen)
            if pencil_rank(sp) != r:
                continue
            restricted, _ = p_g.eval_on_line(x0, [-v for v in a0])
            assert UniPoly(restricted).monic() == characteristic_polynomial(sp).poly, g.name
            done += 1
    _verdict(
        7,
        True,
        f"semi-invariant identity exact at 3 pairs for each of {len(algebras)} algebras",
    )


def test_criterion_8_eigenvalue_lemma():
    rational_root_checks = 0
    failures = 0
    fixtures = [
        (heisenberg3(), [0, 0, 1]),
        (heisenberg3(), [0, 0, 2]),
        (aff1(), [0, 1]),
        (aff1(), [0, 3]),
    ]
    for g, a in fixtures:
        pencil = lie_pencil(g, a).pencil
        for s in range(5):
            x0 = sample_generic_point(pencil, seed=s + 3)
            cert = eigenvalue_lemma_check(pencil, x0)
            for check in cert.checks:
                if check.status == "PASS":
                    rational_root_checks += 1
                elif check.status == "FAIL":
                    failures += 1
    _verdict(
        8,
        failures == 0 and rational_root_checks >= 20,
        f"(A - lambda B) dlambda = 0 exact at {rational_root_checks} rational-root "
        f"sample points, {failures} failures",
    )


def test_criterion_9_verdict_cross_consistency():
    # completeness_check aborts with InternalConsistencyError whenever the
    # dimension test and the block-structure test disagree; running it
    # across mixed fixtures is the criterion
    from jkpencil.multipoly import MultiPoly
    from jkpencil.poisson import PolyPoissonPencil
    from test_liealg import dual_number_aff1

    instances = 0
    fixtures = [
        (heisenberg3(), [0, 0, 1]),
        (aff1(), [0, 1]),
        (so3(), [1, 2, 3]),
        (e3(), [1, 0, 0, 0, 0, 1]),
        (abelian(3), [1, 1, 1]),
        (dual_number_aff1(), [1, 1, 1, 1]),
    ]
    for g, a in fixtures:
        pencil = lie_pencil(g, a).pencil
        for s in range(3):
            x0 = sample_generic_point(pencil, seed=s + 11)
            rep = completeness_check(pencil, x0)
            assert rep.verdict in (COMPLETE, INCOMPLETE)
            instances += 1
    # constant pencil with a repeated eigenvalue (both routes INCOMPLETE)
    sp = canonical_pencil(
        JKInvariants.from_blocks([], [(UniPoly.linear(3), (1, 1))])
    )
    a_rows = [[MultiPoly.constant(sp.n, v) for v in row] for row in sp.a]
    b_rows = [[MultiPoly.constant(sp.n, v) for v in row] for row in sp.b]
    rep = completeness_check(PolyPoissonPencil(a_rows, b_rows), [0] * sp.n)
    assert rep.verdict == INCOMPLETE
    instances += 1
    _verdict(
        9,
        True,
        f"dimension-test and block-structure verdicts agree on {instances} analyses",
    )


def test_criterion_10_deterministic_reports(capsys, tmp_path):
    fixture_docs = []
    for name in [g.name for g in catalog()]:
        code = cli.main(["catalog", name])
        assert code == 0
        out = capsys.readouterr().out
        path = tmp_path / f"{name}.json"
        path.write_text(out)
        fixture_docs.append(["lie", "analyze", str(path), "--format", "json",
                             "--seed", "424242"])
    rng = random.Random(SUITE_SEED + 3)
    for i in range(3):
        spec = random_jk_spec(rng, max_dim=10)
        p = canonical_pencil(spec)
        doc = {
            "dimension": p.n,
            "A": [[str(v) for v in row] for row in p.a],
            "B": [[str(v) for v in row] for row in p.b],
        }
        path = tmp_path / f"pencil{i}.json"
        path.write_text(json.dumps(doc))
        fixture_docs.append(["pencil", "analyze", str(path), "--format", "json",
                             "--seed", "424242"])
    total_bytes = 0
    for argv in fixture_docs:
        assert cli.main(argv) == 0
        first = capsys.readouterr().out.encode()
        assert cli.main(argv) == 0
        second = capsys.readouterr().out.encode()
        assert first == second, f"non-deterministic report for {argv}"
        total_bytes += len(first)
    _verdict(
        10,
        True,
        f"{len(fixture_docs)} fixture reports byte-identical across two runs "
        f"({total_bytes} bytes compared)",
    )
