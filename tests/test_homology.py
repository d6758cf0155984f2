"""Resolutions, translates, Ext dimensions, approximations, dimensions.

Oracles: hereditary Ext^1 between simples counts arrows (independent of the
resolution machinery); tau on the self-injective Nakayama algebra permutes
the simples cyclically (knitted by hand); dimension shifting is checked
degree by degree.
"""

import pytest

from quivercover import (
    DimBound,
    dominant_dimension_upto,
    dual_module,
    ext_dim,
    hom_basis,
    hom_dim,
    inj_dim_upto,
    injective_at,
    is_isomorphic,
    is_projective_module,
    list_indecomposables,
    min_proj_resolution,
    proj_dim_upto,
    projective_at,
    radical_inclusion,
    simple_at,
    syzygy,
    tau,
    tau_n,
    tau_n_minus,
    transpose,
    validate_module,
    zero_module,
)
from quivercover.field import hstack, rank
from quivercover.homology import _evaluation_map, approximation_objects
from tests.conftest import GOLDENS, cosyzygy, resolution_term, summand_morphisms, tau_minus
from tests.reference_ext import _coords_matrix


def check_resolution(res, k):
    """Exactness, zero composites and minimality of P_k -> ... -> P_0 -> M."""
    for i in range(k):
        if not (res.diff(i) @ res.diff(i + 1)).is_zero():
            return False
        P = resolution_term(res, i)
        for x in P.support:
            if rank(res.diff(i + 1).vertex(x)) != P.dim(x) - rank(res.diff(i).vertex(x)):
                return False
    for i in range(1, k + 1):
        d = res.diff(i)
        _, incl = radical_inclusion(d.tgt)
        for x in d.mats:
            radb = incl.vertex(x)
            m = d.vertex(x)
            combined = hstack([radb, m]) if radb.cols else m
            if rank(combined) != rank(radb):
                return False
    return True


def is_injective_module(Q):
    return is_projective_module(dual_module(Q))


def is_right_approximation(U, f):
    """Every morphism from U (and its twists) factors through f: the
    reference for the evaluation map that ModPushdown reads."""
    M = f.tgt
    for Uo in approximation_objects(U, M):
        if not hom_basis(Uo, M):
            continue
        through = [f @ g for g in hom_basis(Uo, f.src)]
        target = hom_basis(Uo, M)
        if not through:
            return False
        mat = _coords_matrix(target, through)
        if rank(mat) < len(target):
            return False
    return True


def nonprojective_simple(pres):
    for x in pres.vertices:
        S = simple_at(pres, x)
        if not is_projective_module(S):
            return S
    raise AssertionError("no non-projective simple")


def test_resolution_of_projective_is_trivial(n32):
    P = projective_at(n32, "1")
    res = min_proj_resolution(P, 3)
    assert resolution_term(res, 0).dims == P.dims
    assert all(resolution_term(res, i).is_zero() for i in (1, 2, 3))
    assert check_resolution(res, 3)


def test_resolution_of_simple_over_ka2(ka2):
    # the non-projective simple of kA_2 has resolution 0 -> P -> P' -> S -> 0
    S = nonprojective_simple(ka2)
    res = min_proj_resolution(S, 3)
    assert resolution_term(res, 0).total_dim == 2
    assert resolution_term(res, 1).total_dim == 1
    assert resolution_term(res, 2).is_zero()
    assert check_resolution(res, 3)
    assert is_projective_module(resolution_term(res, 1))


def test_resolution_periodic_n32(n32):
    # rad^2 = 0 self-injective: every simple has an infinite resolution with
    # all terms the length-2 projectives
    for x in n32.vertices:
        res = min_proj_resolution(simple_at(n32, x), 4)
        assert all(resolution_term(res, i).total_dim == 2 for i in range(5))
        assert check_resolution(res, 4)


def test_injective_coresolution(n32, ka2):
    # the minimal injective coresolution of M is D of the minimal projective
    # resolution of D M over the opposite
    S = nonprojective_simple(ka2)
    res = min_proj_resolution(dual_module(S), 3)
    assert check_resolution(res, 3)
    for x in n32.vertices:
        res = min_proj_resolution(dual_module(simple_at(n32, x)), 3)
        assert check_resolution(res, 3)


def test_syzygy_examples(n32, ka2):
    assert syzygy(projective_at(n32, "1"), 1).is_zero()
    # over the hereditary kA_2 the resolution kernel of the non-projective
    # simple is the other simple (which is projective), so the stable syzygy
    # strips it to zero
    S = nonprojective_simple(ka2)
    res = min_proj_resolution(S, 1)
    assert resolution_term(res, 1).total_dim == 1
    assert is_projective_module(resolution_term(res, 1))
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
            assert ext_dim(M, N, 0) == hom_dim(M, N)


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
    U = [P1]
    f = _evaluation_map(U, P1)[0]
    # a right approximation of a member is a split epi
    assert all(
        f.vertex(x).rows == 0 or f.vertex(x).cols >= f.vertex(x).rows
        for x in P1.support
    )
    assert is_right_approximation(U, f)


def test_right_approximation_generators_surject(n32):
    projs = [projective_at(n32, x) for x in n32.vertices]
    U = projs
    for x in n32.vertices:
        S = simple_at(n32, x)
        f = _evaluation_map(U, S)[0]
        assert all(rank(f.vertex(v)) == S.dim(v) for v in S.support)
        assert is_right_approximation(U, f)


def test_approximation_zero_map_example(ka2):
    # U = add(P_1), M = S_2: Hom(P_1, S_2) = 0, so the approximation is zero
    U = [projective_at(ka2, "1")]
    f = _evaluation_map(U, simple_at(ka2, "2"))[0]
    assert f.src.is_zero() or f.is_zero()


def test_relative_ext_detects_Z_membership(n32):
    # on a self-injective algebra Ext into add(Lambda) vanishes for every
    # module: everything lies in the perpendicular category of the projectives
    U = [projective_at(n32, x) for x in n32.vertices]
    for M in list_indecomposables(n32):
        for Ugen in U:
            for i in (1, 2):
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


def mixed_term_doc(vertices, field):
    """1 -> 2 -> 3 -> 4 and 5 -> 3, with the composites 1 -> 2 -> 3 and
    2 -> 3 -> 4 zero and every weight 1 in Z.  Term 0 of the injective
    coresolution of P(3) is I(2) + I(5), and only I(5) is projective."""
    arrows = [("x0", "1", "2"), ("x1", "2", "3"), ("x2", "3", "4"), ("x3", "5", "3")]
    return {
        "field": field,
        "group": {"kind": "free-abelian", "rank": 1},
        "vertices": vertices,
        "arrows": [{"id": a, "src": s, "tgt": t, "weight": [1]} for a, s, t in arrows],
        "relations": [
            [{"coeff": "1", "path": ["x0", "x1"]}],
            [{"coeff": "1", "path": ["x1", "x2"]}],
        ],
        "nilbound": 2,
    }


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("field", [{"kind": "prime", "p": 32003}, {"kind": "rationals"}], ids=["F_32003", "Q"])
@pytest.mark.parametrize("vertices", [list("12345"), list("54321")], ids=["1-5", "5-1"])
def test_dominant_dimension_tests_every_summand_of_a_mixed_term(vertices, field, cover):
    # in either vertex order, testing only the first or only the last
    # summand of a term would see I(5) alone and answer 1
    from quivercover import load_presentation, smash_cover

    pres = load_presentation(mixed_term_doc(vertices, field))
    carrier = smash_cover(pres) if cover else pres
    assert dominant_dimension_upto(carrier, 4) == DimBound.exact(0)


def test_edge_resolution_is_the_twisted_centre_resolution(loop2):
    from quivercover import smash_cover, twist_module
    from tests.conftest import shift_box

    cov = smash_cover(loop2)
    edge = min_proj_resolution(simple_at(cov, ("v", (-1,))), 3)
    centre = min_proj_resolution(simple_at(cov, ("v", (0,))), 3)
    edge_terms = [resolution_term(edge, i) for i in range(4)]
    centre_terms = [resolution_term(centre, i) for i in range(4)]
    assert not any(T.is_zero() for T in edge_terms + centre_terms)
    box = shift_box(loop2.group, 1)
    assert any(g not in box for _, g in edge_terms[1].support)  # the resolution leaves the box
    for E, C in zip(edge_terms, centre_terms):
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


def _strip_by_decomposing(M, pred):
    # strip_summands without its shortcut: always decompose
    from quivercover import decompose, direct_sum, zero_module

    if M.is_zero():
        return M
    keep = [piece for piece, mult in decompose(M) if not pred(piece) for _ in range(mult)]
    return direct_sum(keep)[0] if keep else zero_module(M.carrier)


def _same_summands(A, B):
    # equal multisets of indecomposable summands, up to isomorphism
    from quivercover import decompose

    rest = [piece for piece, mult in decompose(B) for _ in range(mult)]
    for piece, mult in decompose(A):
        for _ in range(mult):
            match = next((k for k, other in enumerate(rest) if is_isomorphic(piece, other)), None)
            if match is None:
                return False
            rest.pop(match)
    return not rest


def test_strip_of_projectives_does_not_decompose(n32, ka3, monkeypatch):
    import quivercover.homology as homology
    from quivercover import direct_sum

    ka3_pool = list_indecomposables(ka3)
    calls = []
    real = homology.decompose
    monkeypatch.setattr(homology, "decompose", lambda M, *a, **k: calls.append(M) or real(M, *a, **k))
    P = direct_sum([projective_at(n32, x) for x in n32.vertices] + [projective_at(n32, "1")])[0]
    assert homology.strip_summands(P, is_projective_module).is_zero()
    I = direct_sum([injective_at(n32, "2"), injective_at(n32, "2")])[0]
    assert homology.strip_summands(I, is_injective_module).is_zero()
    assert calls == []
    # on the hereditary ka3 every syzygy is projective, so none decomposes
    for M in ka3_pool:
        assert syzygy(M, 1).is_zero() and syzygy(M, 2).is_zero()
    assert calls == []
    # a non-projective summand still sends the strip through decompose
    S = nonprojective_simple(n32)
    kept = homology.strip_summands(direct_sum([P, S])[0], is_projective_module)
    assert len(calls) == 1 and kept.dims == S.dims


def test_syzygy_then_tau_build_each_stage_cover_once(monkeypatch):
    import quivercover.modules as modules
    from quivercover import FDModule, load_presentation
    # E6 with every edge oriented from the smaller Bourbaki label to the larger
    edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)]
    e6 = load_presentation({
        "field": {"kind": "prime", "p": 32003},
        "group": {"kind": "free-abelian", "rank": 1},
        "vertices": [str(v) for v in range(1, 7)],
        "arrows": [{"id": f"a{a}_{b}", "src": str(a), "tgt": str(b), "weight": [1]} for a, b in edges],
        "relations": [],
        "nilbound": 4,
    })
    N = next(N for N in list_indecomposables(e6) if N.total_dim >= 3 and not is_projective_module(N))
    M = FDModule(e6, dict(N.dims), dict(N.gen_mats))  # a copy with nothing memoised
    built = []
    real = modules._build_projective_cover
    monkeypatch.setattr(modules, "_build_projective_cover", lambda X: built.append(X) or real(X))
    assert syzygy(M).is_zero()  # hereditary: the first syzygy stage is projective
    assert is_isomorphic(tau(M), tau(N))
    K = min_proj_resolution(M, 1).stage(1)
    assert not K.is_zero()
    assert [sum(X is S for X in built) for S in (M, K)] == [1, 1]
    assert all(sum(X is S for X in built) == 1 for S in built)


@pytest.mark.parametrize("name", ["ka3", "n32"])
def test_syzygies_match_a_strip_that_always_decomposes(name, request):
    from quivercover import direct_sum

    pres = request.getfixturevalue(name)
    pool = list_indecomposables(pres)
    mods = pool + [direct_sum([A, B])[0] for k, A in enumerate(pool) for B in pool[k:]]
    mods.append(direct_sum(pool + pool)[0])
    for M in mods:
        for i in (1, 2):
            ref = _strip_by_decomposing(min_proj_resolution(M, i - 1).stage(i), is_projective_module)
            got = syzygy(M, i)
            assert got.dims == ref.dims and _same_summands(got, ref)
            DM = dual_module(M)
            ref = _strip_by_decomposing(dual_module(min_proj_resolution(DM, i - 1).stage(i)), is_injective_module)
            got = cosyzygy(M, i)
            assert got.dims == ref.dims and _same_summands(got, ref)


def _dominant_dimension_by_decomposing(carrier, bound):
    # each term of a projective's injective coresolution is the dual of a
    # term of the dual's projective resolution; decompose it and test every
    # summand for projectivity
    from quivercover import decompose

    best = bound
    for x in carrier.fundamental_domain():
        res = min_proj_resolution(dual_module(projective_at(carrier, x)), bound)
        d = 0
        for j in range(bound):
            term = dual_module(resolution_term(res, j))
            if term.is_zero():
                d = bound
                break
            if not all(is_projective_module(piece) for piece, _ in decompose(term)):
                break
            d = j + 1
        best = min(best, d)
    return DimBound.exact(best) if best < bound else DimBound.at_least(bound)


@pytest.mark.parametrize("name", GOLDENS)
def test_dominant_dimension_matches_decomposing_each_term(name, request):
    from quivercover import smash_cover

    pres = request.getfixturevalue(name)
    for carrier in (pres, smash_cover(pres)):
        for bound in (1, 2, 3):
            assert dominant_dimension_upto(carrier, bound) == _dominant_dimension_by_decomposing(carrier, bound)


def _stage(M, i):
    # the i-th kernel of M's minimal projective resolution, built by hand
    from quivercover import projective_cover
    from quivercover.modules import kernel_module

    for _ in range(i):
        M = M if M.is_zero() else kernel_module(projective_cover(M).epi)[0]
    return M


@pytest.mark.parametrize("name", ["ka3", "n32", "ausl2"])
def test_tau_n_minus_is_tr_of_the_dual_resolution(name, request):
    # tau_n^- M = Tr of the (n-1)-st stage of the resolution of D M, entry for entry
    from quivercover import direct_sum

    pool = list_indecomposables(request.getfixturevalue(name))
    for M in pool + [direct_sum(pool)[0]]:
        for n in (1, 2, 3):
            got = tau_n_minus(M, n)
            ref = transpose(_stage(dual_module(M), n - 1))
            assert got.carrier is M.carrier
            assert got.dims == ref.dims and got.gen_mats == ref.gen_mats


def _yoneda_cokernel_by_composites(carrier, srcs, tgts, combos):
    # the former yoneda_cokernel: the map is the sum of the composites
    # T_inc[j] @ h_ij @ S_prj[i], each h_ij built vertex by vertex from its
    # Yoneda element
    from quivercover import ModMorphism, direct_sum
    from quivercover.field import Mat
    from quivercover.modules import cokernel_module, zero_morphism

    field = carrier.field

    def summed(objs):
        if not objs:
            return zero_module(carrier), [], []
        mods = [projective_at(carrier, v) for v in objs]
        S, offsets = direct_sum(mods)
        return (S, *summand_morphisms(S, mods, offsets))

    def hom_from_yoneda(a, b, combo):
        Pa, Pb = projective_at(carrier, a), projective_at(carrier, b)
        mats = {}
        for y in Pa.support:
            rows = carrier.hom_labels(y, b)
            index = {lab: i for i, lab in enumerate(rows)}
            m = [[0] * Pa.dim(y) for _ in rows]
            for j, q in enumerate(carrier.hom_labels(y, a)):
                for lab, c in carrier.compose_combos(y, a, b, {q: field.scalar(1)}, combo).items():
                    m[index[lab]][j] = c
            if len(rows):
                mats[y] = Mat.from_rows(field, m)
        return ModMorphism(Pa, Pb, mats)

    S, _, S_prj = summed(srcs)
    T, T_inc, _ = summed(tgts)
    t = zero_morphism(S, T)
    for (i, j), combo in combos.items():
        if combo:
            t = t + (T_inc[j] @ hom_from_yoneda(srcs[i], tgts[j], combo) @ S_prj[i])
    return cokernel_module(t)[0]


def _yoneda_carrier(name, field):
    """(carrier, objects to draw from) for the Yoneda reference test."""
    from quivercover import EndoCarrier, load_presentation, smash_cover
    from tests.conftest import golden_doc
    from tests.test_square import square_doc

    if name == "square":
        square = load_presentation(square_doc(field))
        return square, square.objects
    n32 = load_presentation({**golden_doc("n32"), "field": field})
    if name == "n32":
        return n32, n32.objects
    if name == "n32-cover":
        return smash_cover(n32), [(v, (s,)) for s in range(3) for v in n32.vertices]
    E = EndoCarrier(list_indecomposables(n32))
    return E, E.objects


@pytest.mark.parametrize("field", [{"kind": "prime", "p": 32003}, {"kind": "rationals"}], ids=["F_32003", "Q"])
@pytest.mark.parametrize("name", ["n32", "n32-cover", "square", "endo"])
def test_yoneda_cokernel_matches_the_sum_of_composites(name, field):
    import random

    from quivercover.homology import yoneda_cokernel
    from tests.conftest import random_scalar

    carrier, objects = _yoneda_carrier(name, field)
    rng = random.Random(20261019)
    proper = 0
    for _ in range(16):
        srcs = rng.choices(objects, k=rng.randint(0, 3))
        tgts = rng.choices(objects, k=rng.randint(1, 3))
        combos = {}
        for i, a in enumerate(srcs):
            for j, b in enumerate(tgts):
                labels = carrier.hom_labels(a, b)
                if labels and rng.random() < 0.8:
                    combos[(i, j)] = {lab: random_scalar(carrier.field, rng) for lab in labels}
        got = yoneda_cokernel(carrier, srcs, tgts, combos)
        ref = _yoneda_cokernel_by_composites(carrier, srcs, tgts, combos)
        assert got.dims == ref.dims
        assert all(got.mat(g) == ref.mat(g) for g in set(got.gen_mats) | set(ref.gen_mats))
        proper += got.total_dim < sum(projective_at(carrier, b).total_dim for b in tgts)
    assert proper  # some map was nonzero


@pytest.mark.parametrize("name", ["ka3", "n32", "ausl2", "loop2"])
def test_closure_steps_are_rad_socle_quotient_and_the_four_translates(name, request):
    # entry for entry: rad M, M / soc M, Omega M, Omega^- M, tau M, tau^- M
    from tests.reference_knit import closure_steps
    from quivercover.modules import cokernel_module, socle_inclusion

    for M in list_indecomposables(request.getfixturevalue(name)):
        refs = [
            radical_inclusion(M)[0],
            cokernel_module(socle_inclusion(M)[1])[0],
            syzygy(M),
            cosyzygy(M),
            tau(M),
            tau_minus(M),
        ]
        got = list(closure_steps(M))
        assert [X.carrier for X in got] == [M.carrier] * 6
        assert [(X.dims, X.gen_mats) for X in got] == [(X.dims, X.gen_mats) for X in refs]


def test_e6_knit_resolves_each_dual_once(monkeypatch):
    # tau^- M is built on one D M per class, which Omega^- M shares where
    # the knit takes it, so its cover, kernel and the kernel's cover are
    # built once per class; the hereditary knit takes tau^- alone, so the
    # 72 covers over the opposite are the two of D M for each of the 36
    # classes; deterministic counts
    import quivercover.field as field
    import quivercover.modules as modules
    from quivercover import load_presentation
    from quivercover.carrier import OppositeCarrier

    edges = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)]
    e6 = load_presentation({
        "field": {"kind": "prime", "p": 32003},
        "group": {"kind": "free-abelian", "rank": 1},
        "vertices": [str(v) for v in range(1, 7)],
        "arrows": [{"id": f"a{a}_{b}", "src": str(a), "tgt": str(b), "weight": [1]} for a, b in edges],
        "relations": [],
        "nilbound": 4,
    })
    covers, rrefs = [], []
    real_cover, real_rref = modules._build_projective_cover, field._residue_rref
    monkeypatch.setattr(
        modules, "_build_projective_cover",
        lambda M: covers.append(isinstance(M.carrier, OppositeCarrier)) or real_cover(M),
    )
    monkeypatch.setattr(field, "_residue_rref", lambda *args: rrefs.append(1) or real_rref(*args))
    assert len(list_indecomposables(e6)) == 36
    # before the shared D M: 210 covers, 138 over the opposite, 4,719
    # eliminations; before the basis-scan iso test, 3,997; before the knit
    # skipped the steps its pool determines and cokernels took one
    # elimination per object, 144, 72 and 3,913; while the hereditary
    # certificate also resolved the simples over the opposite, 122, 70 and
    # 2,474; while the hereditary knit also took rad M and M / soc M, 110,
    # 58 and 2,388; while it also took tau M, 102, 54 and 1,409; while a
    # transpose also built the second syzygy, decompose built End of each
    # translate and a top took two eliminations per object, 84, 72 and 1,093
    assert (len(covers), sum(covers), len(rrefs)) == (84, 72, 870)


def _theorem_docs():
    """The inputs of the transpose theorem test, each a presentation
    document over its own field: the goldens, the square, and E6 and D5
    with every edge from the smaller label to the larger."""
    from tests.conftest import golden_doc
    from tests.test_knitting import KNOWN_ANSWERS, dynkin_doc, path_algebra_doc
    from tests.test_square import square_doc

    docs = {name: golden_doc(name) for name in GOLDENS}
    docs["square"] = square_doc({"kind": "prime", "p": 32003})
    docs["E6"] = dynkin_doc("E6", {"kind": "prime", "p": 32003})
    docs["D5"] = path_algebra_doc(*KNOWN_ANSWERS["D5"][:2], {"kind": "prime", "p": 32003})
    return docs


@pytest.mark.parametrize("field", [None, {"kind": "rationals"}, {"kind": "prime", "p": 5}], ids=["input", "Q", "F_5"])
@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("name", [*GOLDENS, "square", "E6", "D5"])
def test_a_translate_of_a_class_is_indecomposable_or_zero(name, cover, field):
    # Tr is a bijection from the indecomposable non-projectives to those
    # over the opposite, and kills the projectives (ARS IV.1), which is why
    # transpose marks its result; here the theorem is checked on an
    # unmarked copy of Tr M and of Tr D M, by a decomposition that reads no
    # mark: the copy is zero exactly when M is projective (injective), and
    # else one indecomposable
    from quivercover import FDModule, decompose, load_presentation, smash_cover

    doc = _theorem_docs()[name]
    if field is not None:
        doc = {**doc, "field": field}
    pres = load_presentation(doc)
    for M in list_indecomposables(smash_cover(pres) if cover else pres):
        for X in (M, dual_module(M)):
            T = transpose(X)
            marked = bool(X._cache.get("indec")) and not T.is_zero()
            assert T._cache.get("indec", False) == marked
            copy = FDModule(T.carrier, dict(T.dims), dict(T.gen_mats))
            if is_projective_module(X):
                assert copy.is_zero()
                continue
            parts = decompose(copy)
            assert len(parts) == 1 and parts[0][1] == 1


def test_a_syzygy_or_radical_of_a_class_can_split():
    # radical square zero on a -> y -> x <- z <- b: rad P_x = Omega S_x is
    # S_y + S_z, neither projective, so no syzygy or radical may inherit
    # the indecomposable mark of the module it comes from
    from quivercover import decompose, load_presentation

    arrows = [("p", "a", "y"), ("q", "y", "x"), ("r", "b", "z"), ("s", "z", "x")]
    carrier = load_presentation({
        "field": {"kind": "prime", "p": 32003},
        "group": {"kind": "free-abelian", "rank": 0},
        "vertices": ["a", "y", "b", "z", "x"],
        "arrows": [{"id": name, "src": s, "tgt": t} for name, s, t in arrows],
        "relations": [[{"coeff": 1, "path": ["p", "q"]}], [{"coeff": 1, "path": ["r", "s"]}]],
        "nilbound": 1,
    })
    expected = sorted([{"y": 1}, {"z": 1}], key=str)
    for X in (syzygy(simple_at(carrier, "x")), radical_inclusion(projective_at(carrier, "x"))[0]):
        parts = decompose(X)
        assert sorted((piece.dims for piece, _ in parts), key=str) == expected
        assert [mult for _, mult in parts] == [1, 1]
