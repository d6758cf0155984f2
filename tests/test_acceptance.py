"""Acceptance criteria, one test per criterion, one pass/fail line each.

All tolerances are exact (integer equalities and certified isomorphisms);
nothing is deferred to calibration.  Golden algebras: the cyclic 3-vertex
rad^2=0 Nakayama algebra with its Z-covering, k[x]/(x^2) with its Z-covering,
kA_2 and kA_3 with the trivial group, and the Auslander algebra of k[x]/(x^2).

Criterion 3 quantifies over all pairs of indecomposables of a cover; both
sides of the identity are twist-invariant (reindexing the sum upstairs,
isomorphic push-downs downstairs), so the sweep runs over twist-orbit
representatives and the invariance itself is verified on sampled twisted
pairs.
"""

import itertools
import random

import pytest

from quivercover import (
    DimBound,
    EndoCarrier,
    HypothesisUnverified,
    TiltingGraph,
    check_nMAG,
    direct_sum,
    dominant_dimension_upto,
    enumerate_support_tilting_pairs,
    ext_dim,
    ext_twist_sum,
    find_iso,
    hom_dim,
    inj_dim_upto,
    injective_at,
    is_isomorphic,
    is_n_precluster,
    is_projective_module,
    list_indecomposables,
    projective_at,
    push_down,
    scan_tau_n_tilting_finite,
    syzygy,
    tau,
    twist_module,
    twisted_iso,
    verify_bongab,
    verify_equivalence_Z_Gp,
    verify_main1,
    verify_main2,
    verify_orbit_bijection,
    verify_tilting_pushdown,
    zero_module,
)
from quivercover.precluster import _pushdown_spec
from tests.conftest import commutes, tau_minus


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def cover_projective_spec(cover):
    return [projective_at(cover, x) for x in cover.fundamental_domain()]


def test_acceptance_1_gabriel_bijection(n32_cover):
    rep = verify_orbit_bijection(n32_cover, dimcap=8)
    w = rep.witnesses[0]
    ok = (
        rep.outcome is True
        and w["orbit_classes"] == 6
        and w["base_indecomposables"] == 6
    )
    report(1, ok, f"6 orbit classes <-> 6 base indecomposables (got {w['orbit_classes']} <-> {w['base_indecomposables']})")


def test_acceptance_2_pushdown_representables(n32, n32_cover, loop2, loop2_cover):
    checked = 0
    for pres, cover in ((n32, n32_cover), (loop2, loop2_cover)):
        for x in cover.fundamental_domain():
            P = push_down(projective_at(cover, x))
            base_P = projective_at(pres, x[0])
            iso = find_iso(P, base_P)
            assert iso is not None and iso.is_iso() and commutes(iso)
            I = push_down(injective_at(cover, x))
            base_I = injective_at(pres, x[0])
            iso2 = find_iso(I, base_I)
            assert iso2 is not None and iso2.is_iso() and commutes(iso2)
            checked += 2
    report(2, checked == 8, f"{checked} exact iso certificates for pushed representables")


def test_acceptance_3_hom_ext_covering_iso(n32_cover, loop2_cover):
    failures = 0
    pairs_checked = 0
    rng = random.Random(0xC0FFEE)
    for cover in (n32_cover, loop2_cover):
        reps = list_indecomposables(cover, dimcap=8)
        for X, Y in itertools.product(reps, reps):
            for i in (0, 1, 2):
                down = (
                    hom_dim(push_down(X), push_down(Y))
                    if i == 0
                    else ext_dim(push_down(X), push_down(Y), i)
                )
                up = ext_twist_sum(X, Y, i)[0]
                pairs_checked += 1
                if down != up:
                    failures += 1
        # twist-invariance of both sides, verified on sampled twisted pairs
        for _ in range(6):
            X = reps[rng.randrange(len(reps))]
            Y = reps[rng.randrange(len(reps))]
            b = (rng.randrange(1, 3),)
            Xb = twist_module(X, b)
            for i in (0, 1):
                up0 = ext_twist_sum(X, Y, i)[0]
                up1 = ext_twist_sum(Xb, Y, i)[0]
                down0 = (
                    hom_dim(push_down(X), push_down(Y))
                    if i == 0
                    else ext_dim(push_down(X), push_down(Y), i)
                )
                down1 = (
                    hom_dim(push_down(Xb), push_down(Y))
                    if i == 0
                    else ext_dim(push_down(Xb), push_down(Y), i)
                )
                pairs_checked += 1
                if not (up0 == up1 and down0 == down1):
                    failures += 1
    report(
        3,
        failures == 0,
        f"hom/ext covering identity on {pairs_checked} (pair, degree) checks, {failures} failures",
    )


def test_acceptance_4_main_round_trip(n32_cover):
    U = cover_projective_spec(n32_cover)
    verdict = is_n_precluster(U, 1)
    rep1 = verify_main1(U, 1)
    V = _pushdown_spec(U)
    rep2 = verify_main2(V, 1, dimcap=8)
    recovered = rep2.witnesses[0]["preimage_orbit_classes"] == len(U)
    # the preimage pool consists exactly of the twists of U's generators
    pool = list_indecomposables(n32_cover, dimcap=8)
    preimage = [
        X
        for X in pool
        if any(is_isomorphic(push_down(X), gen) for gen in V)
    ]
    exact = all(
        any(twisted_iso(X, g) is not None for g in U) for X in preimage
    )
    ok = verdict.passes and rep1.outcome is True and rep2.outcome is True and recovered and exact
    report(4, ok, "Main1/Main2 round trip at n=1 recovers add(covering projectives)")


def _discover_2_precluster(cover):
    """Generator-cogenerator twist-closed candidates among orbit-class subsets."""
    reps = list_indecomposables(cover, dimcap=8)
    mandatory = []
    optional = []
    proj_inj = []
    for x in cover.fundamental_domain():
        proj_inj.append(projective_at(cover, x))
        proj_inj.append(injective_at(cover, x))
    for rep in reps:
        if any(twisted_iso(rep, M) is not None for M in proj_inj):
            mandatory.append(rep)
        else:
            optional.append(rep)
    assert 2 ** len(optional) <= 2**16
    found = []
    for bits in itertools.product((0, 1), repeat=len(optional)):
        U = mandatory + [optional[i] for i in range(len(optional)) if bits[i]]
        if is_n_precluster(U, 2).passes:
            found.append(U)
    return found


def test_acceptance_5_n2_discovery(n32_cover, loop2_cover):
    details = []
    ok = True
    for name, cover in (("N(3,2)", n32_cover), ("loop", loop2_cover)):
        found = _discover_2_precluster(cover)
        if not found:
            details.append(f"{name}: vacuous")
            continue
        for U in found:
            m1 = verify_main1(U, 2)
            V = _pushdown_spec(U)
            zgp = verify_equivalence_Z_Gp(V, 2, dimcap=8)
            nmag = check_nMAG(EndoCarrier(V), 2)
            if not (m1.outcome is True and zgp.outcome is True and nmag.passed):
                ok = False
        details.append(f"{name}: {len(found)} instance(s), all transfers pass")
    report(5, ok, "; ".join(details))


def test_acceptance_6_auslander_gorenstein(ausl2):
    rep = check_nMAG(ausl2, 1)
    domdim = dominant_dimension_upto(ausl2, 5)
    inj_ok = all(
        inj_dim_upto(projective_at(ausl2, x), 3).at_most(2) for x in ausl2.vertices
    )
    ok = rep.passed and domdim == DimBound.exact(2) and inj_ok
    report(6, ok, f"Auslander algebra of k[x]/(x^2): domdim = {domdim}, injdim(proj) <= 2")


def test_acceptance_7_bongab_transfer(n32, loop2, kronecker):
    ok = True
    for pres in (n32, loop2):
        assert pres.is_square_free()
        for n in (1, 2):
            rep = verify_bongab(pres, n)
            if rep.outcome is not True:
                ok = False
    with pytest.raises(HypothesisUnverified) as caught:
        verify_bongab(kronecker, 1)
    ok = ok and str(caught.value) == "NotSquareFree: the square-free hypothesis is not met"
    ok = ok and caught.value.witnesses == []
    report(7, ok, "nMAG verdicts agree across both coverings (n=1,2); Kronecker not-applicable")


def test_acceptance_8_z_gp_equivalence(n32):
    U = [projective_at(n32, x) for x in n32.vertices]
    rep = verify_equivalence_Z_Gp(U, 1, dimcap=8)
    w = rep.witnesses[0]
    ok = (
        rep.outcome is True
        and w["Z_pool"] == 6
        and w["Gp_pool"] == 6
        and w["hom_tables_equal"] is True
    )
    report(8, ok, f"|Z| = {w['Z_pool']}, |Gp| = {w['Gp_pool']}, hom tables equal entrywise")


def test_acceptance_9_tilting_transfer(n32, n32_cover):
    pool_down = list_indecomposables(n32, dimcap=8)
    down = TiltingGraph(pool_down, 1, pool_down)
    pairs_down = enumerate_support_tilting_pairs(down)
    pool_up = list_indecomposables(n32_cover, dimcap=8)
    up = TiltingGraph(pool_up, 1, pool_up)
    pairs_up = enumerate_support_tilting_pairs(up)
    projs_up = [projective_at(n32_cover, x) for x in n32_cover.fundamental_domain()]
    projs_down = [projective_at(n32, x) for x in n32.vertices]

    def down_pair_modules(msel, psel):
        M = direct_sum([pool_down[i] for i in msel])[0] if msel else zero_module(n32)
        P = direct_sum([projs_down[i] for i in psel])[0] if psel else zero_module(n32)
        return M, P

    matched = 0
    for msel, psel in pairs_up:
        M = direct_sum([pool_up[i] for i in msel])[0] if msel else zero_module(n32_cover)
        P = direct_sum([projs_up[i] for i in psel])[0] if psel else zero_module(n32_cover)
        rep = verify_tilting_pushdown((msel, psel), up, down)
        assert rep.outcome is True and rep.witnesses[0]["upstairs"] is True
        PM, PP = push_down(M), push_down(P)
        for dmsel, dpsel in pairs_down:
            DM, DP = down_pair_modules(dmsel, dpsel)
            if is_isomorphic(PM, DM) and is_isomorphic(PP, DP):
                matched += 1
                break
    scan = scan_tau_n_tilting_finite(n32_cover, 1, dimcap=8)
    per_vertex_ok = all(
        e["upstairs_orbits"] == e["downstairs"] for e in scan.witnesses[0]["per_vertex"]
    )
    ok = (
        len(pairs_up) == len(pairs_down) == matched == 14
        and scan.outcome is True
        and per_vertex_ok
    )
    report(
        9,
        ok,
        f"{len(pairs_up)} upstairs orbit pairs = {len(pairs_down)} downstairs pairs, "
        f"{matched} matched certificates; per-vertex rigid counts agree",
    )


def test_acceptance_10_engine_self_consistency(n32, ka2, ka3, ausl2, n32_cover):
    samples = 0
    failures = 0
    # Yoneda on every module of every base pool and on cover orbit representatives
    for pres in (n32, ka2, ka3, ausl2):
        pool = list_indecomposables(pres)
        for M in pool:
            for x in pres.vertices:
                samples += 1
                if hom_dim(projective_at(pres, x), M) != M.dim(x):
                    failures += 1
                if hom_dim(M, injective_at(pres, x)) != M.dim(x):
                    failures += 1
    for rep_mod in list_indecomposables(n32_cover, dimcap=8):
        for x in n32_cover.fundamental_domain():
            samples += 1
            if hom_dim(projective_at(n32_cover, x), rep_mod) != rep_mod.dim(x):
                failures += 1
    # dimension shifting for i <= 3
    for pres in (n32, ausl2):
        pool = list_indecomposables(pres)
        for M in pool:
            O = syzygy(M, 1)
            for N in pool[:3]:
                for i in (1, 2, 3):
                    samples += 1
                    if ext_dim(M, N, i + 1) != ext_dim(O, N, i):
                        failures += 1
    # stable bijection: tau- tau = id on non-projective indecomposables
    for pres in (n32, ka2, ka3, ausl2):
        for M in list_indecomposables(pres):
            if is_projective_module(M):
                continue
            samples += 1
            if not is_isomorphic(tau_minus(tau(M)), M):
                failures += 1
    ok = failures == 0 and samples >= 100
    report(10, ok, f"{samples} self-consistency samples, {failures} failures")
