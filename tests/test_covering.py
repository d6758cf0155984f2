"""Twists, push-down, covering isomorphisms."""

import itertools

import pytest

from quivercover import (
    HypothesisUnverified,
    canonical_orbit_rep,
    class_index,
    direct_sum,
    dual_module,
    ext_dim,
    ext_twist_sum,
    ext_vanishes,
    hom_dim,
    injective_at,
    is_isomorphic,
    list_indecomposables,
    projective_at,
    push_down,
    push_down_morphism,
    simple_at,
    smash_cover,
    tau,
    twist_module,
    twisted_iso,
    validate_module,
    verify_ext_iso,
    verify_indecomposable_preservation,
    verify_orbit_bijection,
    zero_module,
)
from quivercover.modules import identity_morphism, twist_candidates, zero_morphism
from tests.conftest import shift_box, summand_morphisms, tau_minus, top_module
from window_knit import box_objects, in_box, window_knit


def test_twist_identity(n32_cover):
    P = projective_at(n32_cover, ("1", (0,)))
    assert twist_module(P, (0,)) is P


def test_twist_of_projective_is_shifted_projective(n32_cover):
    P = projective_at(n32_cover, ("1", (0,)))
    T = twist_module(P, (2,))
    assert is_isomorphic(T, projective_at(n32_cover, ("1", (2,))))


def test_twist_action_axiom(n32_cover):
    S = simple_at(n32_cover, ("2", (0,)))
    T = twist_module(twist_module(S, (1,)), (2,))
    assert T.dims == twist_module(S, (3,)).dims


def test_twist_window_bound(n32, n32_cover):
    # no window bounds the cover: a twist past any box exists, is the
    # shifted projective, and lies on objects of the cover
    box = shift_box(n32.group, 6)
    P = projective_at(n32_cover, ("1", (0,)))
    T = twist_module(P, (100,))
    assert in_box(box, P.support) and not in_box(box, T.support)
    assert all(n32_cover.has_object(x) for x in T.support)
    assert is_isomorphic(T, projective_at(n32_cover, ("1", (100,))))


def test_twist_preserves_hom_dims(n32_cover):
    X = projective_at(n32_cover, ("1", (0,)))
    Y = simple_at(n32_cover, ("1", (0,)))
    for a in [(1,), (-1,), (2,)]:
        assert hom_dim(twist_module(X, a), twist_module(Y, a)) == hom_dim(X, Y)


def test_push_down_simple(n32, n32_cover):
    S = simple_at(n32_cover, ("2", (3,)))
    assert is_isomorphic(push_down(S), simple_at(n32, "2"))


def test_push_down_projective_injective(n32, n32_cover):
    # the defining identities of the transfer argument, with certificates
    for v in n32.vertices:
        P = push_down(projective_at(n32_cover, (v, (0,))))
        validate_module(P)
        assert is_isomorphic(P, projective_at(n32, v))
        I = push_down(injective_at(n32_cover, (v, (0,))))
        assert is_isomorphic(I, injective_at(n32, v))


def test_push_down_dims_formula(n32_cover):
    # dim P_*(X)(u) is the sum of the fiber dimensions
    X = projective_at(n32_cover, ("1", (0,)))
    P = push_down(X)
    for v in ["1", "2", "3"]:
        assert P.dim(v) == sum(d for (w, g), d in X.dims.items() if w == v)


def test_push_down_twist_invariance(n32, n32_cover):
    X = projective_at(n32_cover, ("1", (0,)))
    assert is_isomorphic(push_down(twist_module(X, (2,))), push_down(X))


def test_push_down_morphism_functorial(n32_cover):
    X = projective_at(n32_cover, ("1", (0,)))
    ident = identity_morphism(X)
    down = push_down_morphism(ident)
    assert down.is_iso()
    zero = push_down_morphism(zero_morphism(X, X))
    assert zero.is_zero()


def test_push_down_exactness_on_cover_sequence(n32_cover):
    # a split epi pushes down to a split epi (sections push down)
    X = projective_at(n32_cover, ("1", (0,)))
    S, offsets = direct_sum([X, X])
    incs, prjs = summand_morphisms(S, [X, X], offsets)
    down_prj = push_down_morphism(prjs[0])
    down_inc = push_down_morphism(incs[0])
    comp = down_prj @ down_inc
    assert comp.is_iso()


def test_hom_twist_sum_identity(n32_cover):
    reps = list_indecomposables(n32_cover, dimcap=8)
    for X, Y in itertools.product(reps, reps):
        down = hom_dim(push_down(X), push_down(Y))
        up, used = ext_twist_sum(X, Y, 0)
        assert down == up


def test_ext_iso_reports(n32_cover, loop2_cover):
    X = simple_at(n32_cover, ("1", (0,)))
    P = projective_at(n32_cover, ("1", (0,)))
    # degree 0 reduces to the hom isomorphism
    assert verify_ext_iso(X, P, 0).outcome is True
    # projectives have no higher ext on either side
    assert verify_ext_iso(P, P, 1).outcome is True
    # the loop cover: S vs S at degree 1 with both sides nonzero
    S = simple_at(loop2_cover, ("v", (0,)))
    rep = verify_ext_iso(S, S, 1)
    assert rep.outcome is True
    assert rep.witnesses[0]["downstairs"] == 1  # Ext^1(k, k) over k[x]/(x^2)


def test_indec_preservation(n32_cover):
    S = simple_at(n32_cover, ("1", (0,)))
    assert verify_indecomposable_preservation(S).outcome is True
    D = direct_sum([S, S])[0]
    with pytest.raises(HypothesisUnverified) as caught:
        verify_indecomposable_preservation(D)
    assert str(caught.value) == "input is decomposable; the claim only covers indecomposables"
    assert caught.value.witnesses == [{"summands": [(1, 2)]}]


def test_orbit_bijection_trivial_group(ka2):
    cov = smash_cover(ka2)
    rep = verify_orbit_bijection(cov, dimcap=8)
    assert rep.outcome is True
    w = rep.witnesses[0]
    assert w["orbit_classes"] == w["base_indecomposables"] == 3


def test_orbit_bijection_loop(loop2_cover):
    rep = verify_orbit_bijection(loop2_cover, dimcap=8)
    assert rep.outcome is True
    assert rep.witnesses[0]["orbit_classes"] == 2


def test_canonical_rep_and_twisted_iso(n32_cover):
    S = simple_at(n32_cover, ("1", (3,)))
    rep = canonical_orbit_rep(S)
    assert min(g for (_, g) in rep.support) == (0,)
    assert twisted_iso(S, rep) is not None
    T = simple_at(n32_cover, ("2", (0,)))
    assert twisted_iso(S, T) is None


def test_window_freeness(n32, n32_cover):
    # no nonidentity group element fixes an object of a box
    for v in box_objects(n32_cover, shift_box(n32.group, 1)):
        for a in [(1,), (-1,), (3,)]:
            moved = n32_cover.twist_object(a, v)
            assert moved != v


def test_pushdown_commutes_with_translates(n32_cover):
    from quivercover import tau_n, tau_n_minus

    reps = list_indecomposables(n32_cover, dimcap=8)
    for M in reps:
        for n in (1, 2):
            up = tau_n(M, n)
            down = tau_n(push_down(M), n)
            if up.is_zero():
                assert down.is_zero()
            else:
                assert is_isomorphic(push_down(up), down)
            upm = tau_n_minus(M, n)
            downm = tau_n_minus(push_down(M), n)
            if upm.is_zero():
                assert downm.is_zero()
            else:
                assert is_isomorphic(push_down(upm), downm)


def test_pushdown_commutes_with_transpose_and_sums(n32_cover):
    from quivercover import dual_module, transpose

    X = projective_at(n32_cover, ("1", (0,)))
    S = simple_at(n32_cover, ("1", (0,)))
    D = direct_sum([X, S])[0]
    assert is_isomorphic(push_down(D), direct_sum([push_down(X), push_down(S)])[0])
    # Tr S lives over the opposite of the cover, which is not itself a cover;
    # D commutes with push-down entrywise, so compare D Tr on both sides
    up_dtr = dual_module(transpose(S))
    down_dtr = dual_module(transpose(push_down(S)))
    assert is_isomorphic(push_down(up_dtr), down_dtr)


def test_pushdown_exactness_of_sequences(n32_cover):
    # 0 -> rad P -> P -> top P -> 0 upstairs pushes to an exact sequence
    from quivercover.field import rank
    from quivercover.modules import radical_inclusion

    P = projective_at(n32_cover, ("2", (0,)))
    R, incl = radical_inclusion(P)
    T, proj = top_module(P)
    d_incl = push_down_morphism(incl)
    d_proj = push_down_morphism(proj)
    assert (d_proj @ d_incl).is_zero()
    for v in push_down(P).support:
        im = rank(d_incl.vertex(v))
        ker = push_down(P).dim(v) - rank(d_proj.vertex(v))
        assert im == ker


def _translates(M, box):
    # the twists of a centred module M that lie in the box: the count the
    # Corres and Main2 reports once carried
    carrier = M.carrier
    return sum(in_box(box, [carrier.twist_object(a, x) for x in M.support]) for a in box)


def _parent_orbit_classes(modules):
    # the grouping Corres and Main2 used: twist orbits of a window pool
    classes = []
    for M in modules:
        for entry in classes:
            if twisted_iso(M, entry[0]) is not None:
                entry.append(M)
                break
        else:
            classes.append([M])
    return classes


def _parent_canonical_orbit_rep(M, box):
    # canonical_orbit_rep with its window fall-back
    T = canonical_orbit_rep(M)
    return T if in_box(box, T.support) else M


def _parent_orbit_representatives(modules, box):
    # the grouping the orbit reductions used: canonical reps, first kept
    reps = []
    for M in modules:
        R = _parent_canonical_orbit_rep(M, box)
        if not any(twisted_iso(R, C) is not None for C in reps):
            reps.append(R)
    return reps


def _same_module(A, B):
    return (
        A.dims == B.dims
        and A.gen_mats.keys() == B.gen_mats.keys()
        and all(A.gen_mats[g] == B.gen_mats[g] for g in A.gen_mats)
    )


@pytest.mark.parametrize("name", ["ausl2", "ka2", "ka3", "loop2", "n32", "sixcycle"])
def test_orbit_classes_match_the_parent_groupings(name, request):
    # the orbit knit lists the window knit's canonical representatives, and
    # each translate count is the size of the window knit's orbit class
    pres = request.getfixturevalue(name)
    cover = smash_cover(pres)
    pool = list_indecomposables(cover)
    for halfwidth in (3, 6):
        box = shift_box(pres.group, halfwidth)
        window_pool = window_knit(cover, box)
        old_reps = _parent_orbit_representatives(window_pool, box)
        assert len(pool) == len(old_reps)
        assert all(_same_module(rep, old) for rep, old in zip(pool, old_reps))
        sizes = [len(members) for members in _parent_orbit_classes(window_pool)]
        assert [_translates(X, box) for X in pool] == sizes


@pytest.mark.parametrize("name", ["n32", "loop2"])
def test_cover_pool_is_one_module_per_orbit(name, request):
    # one centred module per twist orbit, as many as the base has classes
    pres = request.getfixturevalue(name)
    pool = list_indecomposables(smash_cover(pres))
    assert len(pool) == len(list_indecomposables(pres))
    assert all(min(g for _, g in X.support) == pres.group.identity() for X in pool)


def test_push_down_is_kept_on_the_module(n32_cover):
    X = simple_at(n32_cover, ("2", (1,)))
    assert push_down(X) is push_down(X)


# ---------------------------------------------------------------------------
# the class test and the vanishing test against their former copies


def _parent_contains_iso(generators, M, twisted):
    # the former subcategory membership test as it stood: untwisted matches first,
    # then every twist of every generator whose support meets M's
    if any(is_isomorphic(U, M) for U in generators):
        return True
    if twisted:
        group = generators[0].carrier.group
        for U in generators:
            for a in twist_candidates(group, U.support, M.support):
                if not group.is_identity(a) and is_isomorphic(twist_module(U, a), M):
                    return True
    return False


def _parent_hom_vanishes_all_twists(A, B):
    # tautilt._hom_vanishes_all_twists as it stood
    if A.is_zero() or B.is_zero():
        return True
    if A.carrier.is_cover:
        return ext_twist_sum(A, B, 0)[0] == 0
    return hom_dim(A, B) == 0


def _parent_ext_loop(A, B, degrees, twisted):
    # the hand loop of is_gorenstein_projective (and of the former
    # ext_vanishes), over every twist when twisted
    for i in degrees:
        if ext_twist_sum(A, B, i)[0] if twisted else ext_dim(A, B, i):
            return False
    return True


def _pools(pres):
    """(carrier, classes, queries) for the base and the cover: the knitted
    classes, and as queries the classes, the zero module and, on the cover,
    far twists of the classes and a projective at a far shift."""
    out = []
    for carrier in (pres, smash_cover(pres)):
        classes = list_indecomposables(carrier)
        queries = list(classes) + [zero_module(carrier)]
        if carrier.is_cover:
            far = sorted({carrier.group.coerce(k) for k in (1, -7, 100)} - {carrier.group.identity()})
            queries += [twist_module(X, a) for X in classes for a in far]
            queries.append(projective_at(carrier, (pres.vertices[0], carrier.group.coerce(5))))
        out.append((carrier, classes, queries))
    return out


@pytest.mark.parametrize("name", ["n32", "loop2", "n32_z2"])
def test_class_index_matches_the_former_contains_iso_scan(name, request):
    # class_index finds the first class the former scan finds, over every
    # twist on the cover and plainly on the base; a far twist is in the
    # class of its centred module only up to twist, so a class_index that
    # ignores carrier.is_cover fails here
    for carrier, classes, queries in _pools(request.getfixturevalue(name)):
        twisted = carrier.is_cover
        found_twisted_only = 0
        for M in queries:
            expected = next(
                (j for j, C in enumerate(classes) if _parent_contains_iso([C], M, twisted)), None
            )
            assert class_index(M, classes) == expected
            if expected is not None and not any(is_isomorphic(M, C) for C in classes):
                found_twisted_only += 1
        if twisted:
            assert found_twisted_only >= len(classes)
        else:
            assert found_twisted_only == 0


@pytest.mark.parametrize("name", ["n32", "loop2", "n32_z2"])
def test_ext_vanishes_matches_the_former_hom_and_ext_tests(name, request):
    # Ext^0 is Hom: over every twist on a cover, plainly downstairs; higher
    # degrees agree with the former hand loop; a zero module vanishes
    for carrier, classes, queries in _pools(request.getfixturevalue(name)):
        twisted = carrier.is_cover
        for A in queries[: len(classes) + 1]:
            for B in queries:
                hom = _parent_hom_vanishes_all_twists(A, B)
                assert ext_vanishes(A, B, (0,)) == hom
                for degrees in ((1,), (0, 1), (0, 1, 2), range(1, 3)):
                    expected = A.is_zero() or B.is_zero() or (
                        (0 not in degrees or hom)
                        and _parent_ext_loop(A, B, [i for i in degrees if i], twisted)
                    )
                    assert ext_vanishes(A, B, degrees) == expected


@pytest.mark.parametrize("name", ["n32", "loop2", "ausl2"])
def test_gorenstein_projectivity_matches_the_former_loop(name, request):
    from quivercover import EndoCarrier, is_gorenstein_projective
    from quivercover.precluster import _translate_closure

    # the subcategory ZGpEquivalence checks, as the suite builds it
    U, _ = _translate_closure(request.getfixturevalue(name), "both", 1, 32)
    E = EndoCarrier(U)
    projectives = [projective_at(E, j) for j in E.objects]
    for X in list_indecomposables(E, dimcap=12) + [zero_module(E)]:
        expected = all(_parent_ext_loop(X, P, range(1, 3), False) for P in projectives)
        assert is_gorenstein_projective(E, X, 1) == expected


@pytest.mark.parametrize("name", ["n32", "loop2", "n32_z2", "sixcycle"])
@pytest.mark.parametrize("upstairs", [False, True], ids=["base", "cover"])
def test_duals_and_translates_validate(name, upstairs, request):
    # a module over C^op validates as its dual over C, on a cover too
    pres = request.getfixturevalue(name)
    carrier = smash_cover(pres) if upstairs else pres
    assert carrier.opposite().fundamental_domain() == carrier.fundamental_domain()
    for x in carrier.fundamental_domain():
        assert carrier.opposite().has_object(x)
        for build in (projective_at, injective_at, simple_at):
            validate_module(dual_module(build(carrier, x)))
    for M in list_indecomposables(carrier):
        validate_module(tau(M))
        validate_module(tau_minus(M))
