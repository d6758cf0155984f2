"""Twists, push-down, pull-up, morphism lifting, covering isomorphisms."""

import itertools

import pytest

from quivercover import (
    WindowTooSmall,
    canonical_orbit_rep,
    direct_sum,
    hom_basis,
    hom_dim,
    hom_twist_sum,
    injective_at,
    is_isomorphic,
    lift_morphism,
    list_indecomposables,
    projective_at,
    pull_up,
    push_down,
    push_down_morphism,
    simple_at,
    smash_cover,
    twist_module,
    twisted_iso,
    validate_module,
    verify_ext_iso,
    verify_indecomposable_preservation,
    verify_orbit_bijection,
)
from quivercover.covering import window_translates
from quivercover.modules import identity_morphism, zero_morphism
from window_knit import window_knit


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


def test_twist_window_bound(n32_cover):
    # the window bounds enumeration only: a twist past it exists, is the
    # shifted projective, and lies outside the window
    P = projective_at(n32_cover, ("1", (0,)))
    T = twist_module(P, (7,))
    assert not n32_cover.in_window(T.support)
    assert n32_cover.in_window(P.support)
    assert is_isomorphic(T, projective_at(n32_cover, ("1", (7,))))


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
    S, incs, prjs = direct_sum([X, X])
    down_prj = push_down_morphism(prjs[0])
    down_inc = push_down_morphism(incs[0])
    comp = down_prj @ down_inc
    assert comp.is_iso()


def test_pull_up_shape(n32, n32_cover):
    S = simple_at(n32, "2")
    up = pull_up(S, n32_cover)
    assert up.truncated  # infinite group
    # one copy of S at every shift
    assert up.total_dim == len(n32_cover.window)
    with pytest.raises(WindowTooSmall):
        up.as_module()
    P = projective_at(n32, "1")
    up2 = pull_up(P, n32_cover)
    assert up2.total_dim == 2 * len(n32_cover.window)


def test_pull_up_finite_group_is_module():
    from quivercover import Group, load_presentation

    from tests.conftest import golden_doc

    pres = load_presentation(golden_doc("sixcycle"))
    from quivercover import orbit_of_finite_action

    action = golden_doc("sixcycle_action")
    q = orbit_of_finite_action(
        pres, Group.cyclic(2), action["vertex_map"], action["arrow_map"]
    )
    cov = smash_cover(q, q.group.box(0))
    S = simple_at(q, q.vertices[0])
    up = pull_up(S, cov)
    assert not up.truncated
    M = up.as_module()
    validate_module(M)
    # P^* P_* X = sum of the twists of X over the group
    assert is_isomorphic(push_down(M), direct_sum([S, S])[0])


def test_lift_single_and_zero(n32_cover):
    X = simple_at(n32_cover, ("1", (0,)))
    Y = projective_at(n32_cover, ("2", (0,)))
    theta_basis = hom_basis(push_down(X), push_down(Y))
    fam = lift_morphism(zero_morphism(push_down(X), push_down(Y)), X, Y)
    assert fam.nonzero() == []
    for theta in theta_basis:
        fam = lift_morphism(theta, X, Y)
        assert len(fam.nonzero()) >= 1
        for a, f in fam.nonzero():
            assert f.check()


def test_hom_twist_sum_identity(n32_cover):
    reps = list_indecomposables(n32_cover, dimcap=8)
    for X, Y in itertools.product(reps, reps):
        down = hom_dim(push_down(X), push_down(Y))
        up, used = hom_twist_sum(X, Y)
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
    assert verify_indecomposable_preservation(D).outcome == "not-applicable"


def test_orbit_bijection_trivial_group(ka2):
    cov = smash_cover(ka2, ka2.group.box(0))
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


def test_window_freeness(n32_cover):
    # no nonidentity group element fixes a window vertex
    for v in list(n32_cover.objects)[:6]:
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
    from quivercover import transpose

    X = projective_at(n32_cover, ("1", (0,)))
    S = simple_at(n32_cover, ("1", (0,)))
    D = direct_sum([X, S])[0]
    assert is_isomorphic(push_down(D), direct_sum([push_down(X), push_down(S)])[0])
    up_tr = transpose(S)
    down_tr = transpose(push_down(S))
    assert is_isomorphic(push_down(up_tr), down_tr)


def test_pushdown_exactness_of_sequences(n32_cover):
    # 0 -> rad P -> P -> top P -> 0 upstairs pushes to an exact sequence
    from quivercover.field import rank
    from quivercover.modules import radical_inclusion, top_module

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


def _parent_canonical_orbit_rep(M):
    # canonical_orbit_rep with its window fall-back
    T = canonical_orbit_rep(M)
    return T if M.carrier.in_window(T.support) else M


def _parent_orbit_representatives(modules):
    # the grouping the orbit reductions used: canonical reps, first kept
    reps = []
    for M in modules:
        R = _parent_canonical_orbit_rep(M)
        if not any(twisted_iso(R, C) is not None for C in reps):
            reps.append(R)
    return reps


def _same_module(A, B):
    return (
        A.dims == B.dims
        and A.gen_mats.keys() == B.gen_mats.keys()
        and all((A.gen_mats[g].a == B.gen_mats[g].a).all() for g in A.gen_mats)
    )


@pytest.mark.parametrize("name", ["ausl2", "ka2", "ka3", "loop2", "n32", "sixcycle"])
def test_orbit_classes_match_the_parent_groupings(name, request):
    # the orbit knit lists the window knit's canonical representatives, and
    # each translate count is the size of the window knit's orbit class
    pres = request.getfixturevalue(name)
    for halfwidth in (3, 6):
        cover = smash_cover(pres, pres.group.box(halfwidth))
        pool = list_indecomposables(cover)
        window_pool = window_knit(cover)
        old_reps = _parent_orbit_representatives(window_pool)
        assert len(pool) == len(old_reps)
        assert all(_same_module(rep, old) for rep, old in zip(pool, old_reps))
        sizes = [len(members) for members in _parent_orbit_classes(window_pool)]
        assert [window_translates(X) for X in pool] == sizes


@pytest.mark.parametrize("name", ["n32", "loop2"])
def test_cover_pool_is_one_module_per_orbit(name, request):
    # the pool at half-width 3 and at the default window is the same list of
    # modules: one centred module per twist orbit, whatever the window
    from quivercover.cli import _default_window

    pres = request.getfixturevalue(name)
    narrow = list_indecomposables(smash_cover(pres, pres.group.box(3)))
    wide = list_indecomposables(smash_cover(pres, pres.group.box(_default_window(pres, 1))))
    assert len(narrow) == len(wide) == len(list_indecomposables(pres))
    assert all(_same_module(A, B) for A, B in zip(narrow, wide))
    assert all(min(g for _, g in X.support) == pres.group.identity() for X in wide)


def test_push_down_is_kept_on_the_module(n32_cover):
    X = simple_at(n32_cover, ("2", (1,)))
    assert push_down(X) is push_down(X)
