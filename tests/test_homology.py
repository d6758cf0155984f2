"""Resolutions, translates, Ext spaces, approximations, dimensions.

Oracles: hereditary Ext^1 between simples counts arrows (independent of the
resolution machinery); tau on the self-injective Nakayama algebra permutes
the simples cyclically (knitted by hand); dimension shifting is checked
degree by degree.
"""

import pytest

from quivercover import (
    DimBound,
    SubcategorySpec,
    check_resolution,
    cosyzygy,
    dominant_dimension_upto,
    ext_dim,
    ext_space,
    hom_dim,
    inj_dim_upto,
    injective_at,
    is_injective_module,
    is_isomorphic,
    is_projective_module,
    left_approximation,
    list_indecomposables,
    min_inj_coresolution,
    min_proj_resolution,
    proj_dim_upto,
    projective_at,
    relative_ext,
    right_approximation,
    simple_at,
    syzygy,
    tau,
    tau_minus,
    tau_n,
    tau_n_minus,
    transpose,
    validate_module,
    zero_module,
)
from quivercover.homology import is_right_approximation


def nonprojective_simple(pres):
    for x in pres.vertices:
        S = simple_at(pres, x)
        if not is_projective_module(S):
            return S
    raise AssertionError("no non-projective simple")


def test_resolution_of_projective_is_trivial(n32):
    P = projective_at(n32, "1")
    res = min_proj_resolution(P, 3)
    assert res.terms[0].dims == P.dims
    assert all(t.is_zero() for t in res.terms[1:])
    assert check_resolution(res)


def test_resolution_of_simple_over_ka2(ka2):
    # the non-projective simple of kA_2 has resolution 0 -> P -> P' -> S -> 0
    S = nonprojective_simple(ka2)
    res = min_proj_resolution(S, 3)
    assert res.terms[0].total_dim == 2
    assert res.terms[1].total_dim == 1
    assert res.terms[2].is_zero()
    assert check_resolution(res)
    assert is_projective_module(res.terms[1])


def test_resolution_periodic_n32(n32):
    # rad^2 = 0 self-injective: every simple has an infinite resolution with
    # all terms the length-2 projectives
    for x in n32.vertices:
        res = min_proj_resolution(simple_at(n32, x), 4)
        assert all(t.total_dim == 2 for t in res.terms)
        assert check_resolution(res)


def test_injective_coresolution(n32, ka2):
    S = nonprojective_simple(ka2)
    res = min_inj_coresolution(S, 3)
    assert check_resolution(res)
    for x in n32.vertices:
        res = min_inj_coresolution(simple_at(n32, x), 3)
        assert check_resolution(res)


def test_syzygy_examples(n32, ka2):
    assert syzygy(projective_at(n32, "1"), 1).is_zero()
    # over the hereditary kA_2 the resolution kernel of the non-projective
    # simple is the other simple (which is projective), so the stable syzygy
    # strips it to zero
    S = nonprojective_simple(ka2)
    res = min_proj_resolution(S, 1)
    assert res.terms[1].total_dim == 1
    assert is_projective_module(res.terms[1])
    assert syzygy(S, 1).is_zero()
    # over N(3,2), syzygies permute the simples and Omega^3 returns
    simples = [simple_at(n32, x) for x in n32.vertices]
    for S in simples:
        O = syzygy(S, 1)
        assert O.total_dim == 1
        assert sum(1 for T in simples if is_isomorphic(O, T)) == 1
        assert not is_isomorphic(O, S)
        O3 = syzygy(S, 3)
        assert is_isomorphic(O3, S)


def test_cosyzygy_inverse(n32):
    for x in n32.vertices:
        S = simple_at(n32, x)
        assert is_isomorphic(cosyzygy(syzygy(S, 1), 1), S)


def test_transpose_and_tau(n32):
    # tau kills projectives
    assert tau(projective_at(n32, "1")).is_zero()
    assert tau_minus(injective_at(n32, "1")).is_zero()
    # tau permutes the three simples cyclically with tau^3 = id
    simples = [simple_at(n32, x) for x in n32.vertices]
    perm = {}
    for i, S in enumerate(simples):
        T = tau(S)
        validate_module(T)
        matches = [j for j, X in enumerate(simples) if is_isomorphic(T, X)]
        assert len(matches) == 1 and matches[0] != i
        perm[i] = matches[0]
    assert sorted(perm.values()) == [0, 1, 2]
    S = simples[0]
    assert is_isomorphic(tau(tau(tau(S))), S)


def test_tau_duality_on_golden(n32, ka2, ka3, ausl2):
    for pres in (n32, ka2, ka3, ausl2):
        for M in list_indecomposables(pres):
            T = tau(M)
            if T.is_zero():
                assert is_projective_module(M)
                continue
            assert is_isomorphic(tau_minus(T), M)
            B = tau_minus(M)
            if not B.is_zero():
                assert is_isomorphic(tau(B), M)


def test_tau_n_composite(n32, ka3):
    # n=1 agrees with tau on every indecomposable of N(3,2)
    for M in list_indecomposables(n32):
        assert is_isomorphic(tau_n(M, 1), tau(M)) or (
            tau_n(M, 1).is_zero() and tau(M).is_zero()
        )
    # tau_n of projectives vanishes for all n
    for n in (1, 2, 3):
        assert tau_n(projective_at(ka3, "1"), n).is_zero()
    # independent composition oracle: tau_2 = tau of the syzygy (as computed
    # from a hand-checkable resolution)
    S = nonprojective_simple(ka3)
    O = syzygy(S, 1)
    expect = tau(O)
    got = tau_n(S, 2)
    if expect.is_zero():
        assert got.is_zero()
    else:
        assert is_isomorphic(got, expect)


def test_tau_n_minus_inverse_direction(n32):
    for M in list_indecomposables(n32):
        T = tau_n(M, 2)
        if not T.is_zero():
            back = tau_n_minus(T, 2)
            # stable inverse on the part without projective/injective defect
            assert back.total_dim <= M.total_dim + 2


def test_ext_vanishing_on_projectives(n32, ka3):
    P = projective_at(n32, "1")
    for i in (1, 2, 3):
        assert ext_dim(P, simple_at(n32, "2"), i) == 0
    assert ext_dim(projective_at(ka3, "2"), simple_at(ka3, "1"), 1) == 0


def test_ext_degree_zero_is_hom(n32):
    mods = list_indecomposables(n32)
    for M in mods[:4]:
        for N in mods[:4]:
            assert ext_space(M, N, 0).dim == hom_dim(M, N)


def test_hereditary_ext_oracle(ka2, ka3, kronecker):
    # independent oracle: over a path algebra, dim Ext^1(S_x, S_y) equals the
    # number of arrows y -> x (contravariant convention)
    for pres in (ka2, ka3, kronecker):
        for x in pres.vertices:
            for y in pres.vertices:
                arrows = sum(1 for a in pres.arrows if a.src == y and a.tgt == x)
                assert ext_dim(simple_at(pres, x), simple_at(pres, y), 1) == arrows


def test_no_self_extensions_loop_free(n32, ka3, ausl2):
    for pres in (n32, ka3, ausl2):
        for x in pres.vertices:
            S = simple_at(pres, x)
            assert ext_dim(S, S, 1) == 0


def test_dimension_shifting(n32, ausl2):
    for pres in (n32, ausl2):
        mods = list_indecomposables(pres)
        for M in mods:
            O = syzygy(M, 1)
            for N in mods[:3]:
                for i in (1, 2, 3):
                    assert ext_dim(M, N, i + 1) == ext_dim(O, N, i)


def test_right_approximation_split_for_members(n32):
    P1 = projective_at(n32, "1")
    U = SubcategorySpec([P1])
    f = right_approximation(U, P1)
    # a right approximation of a member is a split epi
    assert all(
        f.vertex(x).rows == 0 or f.vertex(x).cols >= f.vertex(x).rows
        for x in P1.support
    )
    assert is_right_approximation(U, f)


def test_right_approximation_generators_surject(n32):
    projs = [projective_at(n32, x) for x in n32.vertices]
    U = SubcategorySpec(projs)
    for x in n32.vertices:
        S = simple_at(n32, x)
        f = right_approximation(U, S)
        from quivercover.field import rank

        assert all(rank(f.vertex(v)) == S.dim(v) for v in S.support)
        assert is_right_approximation(U, f)


def test_approximation_zero_map_example(ka2):
    # U = add(P_1), M = S_2: Hom(P_1, S_2) = 0, so the approximation is zero
    U = SubcategorySpec([projective_at(ka2, "1")])
    f = right_approximation(U, simple_at(ka2, "2"))
    assert f.src.is_zero() or f.is_zero()
    g = left_approximation(U, simple_at(ka2, "2"))
    assert g.tgt.is_zero() or g.is_zero()


def test_relative_ext_everything_projective(n32):
    pool = list_indecomposables(n32)
    U = SubcategorySpec(pool, check=False)
    M = simple_at(n32, "1")
    for i in (1, 2):
        assert relative_ext(U, M, simple_at(n32, "2"), i).dim == 0


def test_relative_ext_add_proj_is_absolute(n32):
    projs = SubcategorySpec([projective_at(n32, x) for x in n32.vertices], check=False)
    for M in [simple_at(n32, "1"), simple_at(n32, "2")]:
        for N in [simple_at(n32, "2"), projective_at(n32, "3")]:
            for i in (0, 1, 2):
                assert relative_ext(projs, M, N, i).dim == ext_dim(M, N, i)


def test_relative_ext_detects_Z_membership(n32):
    # over add(Lambda) = add(projectives) on a self-injective algebra, the
    # relative Ext into the subcategory vanishes for every module: everything
    # lies in the perpendicular category (independent route: absolute Ext into
    # projectives vanishes by self-injectivity)
    U = SubcategorySpec([projective_at(n32, x) for x in n32.vertices], check=False)
    for M in list_indecomposables(n32):
        for Ugen in U.generators:
            for i in (1, 2):
                assert relative_ext(U, M, Ugen, i).dim == 0
                assert ext_dim(M, Ugen, i) == 0


def test_inj_dim(n32, ka2, ausl2):
    # self-injective: projectives have injective dimension 0
    for x in n32.vertices:
        assert inj_dim_upto(projective_at(n32, x), 3) == DimBound.exact(0)
    # Auslander algebra: one projective is injective, the other has injdim 2
    dims = sorted(
        str(inj_dim_upto(projective_at(ausl2, x), 5)) for x in ausl2.vertices
    )
    assert dims == ["0", "2"]
    assert proj_dim_upto(zero_module(ka2), 3) == DimBound.exact(-1)


def test_dominant_dimension(n32, ka2, ausl2, semisimple):
    assert dominant_dimension_upto(semisimple, 4) == DimBound.at_least(4)
    assert dominant_dimension_upto(n32, 4) == DimBound.at_least(4)
    assert dominant_dimension_upto(ausl2, 5) == DimBound.exact(2)
    assert dominant_dimension_upto(ka2, 3) == DimBound.exact(1)


def test_edge_resolution_is_the_twisted_centre_resolution(loop2):
    from quivercover import smash_cover, twist_module

    cov = smash_cover(loop2)
    edge = min_proj_resolution(simple_at(cov, ("v", (-1,))), 3)
    centre = min_proj_resolution(simple_at(cov, ("v", (0,))), 3)
    assert len(edge.terms) == len(centre.terms) == 4
    box = loop2.group.box(1)
    assert any(g not in box for _, g in edge.terms[1].support)  # the resolution leaves the box
    for E, C in zip(edge.terms, centre.terms):
        assert E.dims == twist_module(C, (-1,)).dims
        assert is_isomorphic(E, twist_module(C, (-1,)))


def test_transpose_projective_is_zero(n32):
    assert transpose(projective_at(n32, "2")).is_zero()


def test_ar_pairing_oracle_n32(n32):
    # hand-knitted AR data for the rad^2=0 self-injective Nakayama algebra:
    # the only extension between a non-projective M and a non-injective N is
    # the almost split one, so dim Ext^1(M, N) = 1 iff N = tau M, else 0
    pool = list_indecomposables(n32)
    nonproj = [M for M in pool if not is_projective_module(M)]
    noninj = [N for N in pool if not is_injective_module(N)]
    for M in nonproj:
        T = tau(M)
        for N in noninj:
            expect = 1 if is_isomorphic(N, T) else 0
            assert ext_dim(M, N, 1) == expect
