"""Rigidity, support tilting pairs, enumeration, and the covering scans."""

import itertools

import pytest

from quivercover import (
    AmbientNotClusterTilting,
    TiltingGraph,
    decompose,
    direct_sum,
    enumerate_support_tilting_pairs,
    ext_twist_sum,
    ext_vanishes,
    hom_dim,
    is_G_tau_n_rigid,
    is_isomorphic,
    is_n_cluster_tilting,
    is_support_tilting_pair,
    list_indecomposables,
    projective_at,
    push_down,
    scan_tau_n_tilting_finite,
    simple_at,
    smash_cover,
    tau,
    verify_tilting_pushdown,
    zero_module,
)
from quivercover.covering import class_index


def is_rigid_pair(M, P, n):
    """(M, P) with P projective: M rigid and Hom(P, ^a M) = 0 for all a."""
    return is_G_tau_n_rigid(M, n) and ext_vanishes(P, M, (0,))


def pool_of(pres):
    return list_indecomposables(pres, dimcap=12)


def graph_of(pool):
    """The graph of the whole pool as the ambient at n = 1."""
    return TiltingGraph(pool, 1, pool)


def test_cluster_tilting_n1_is_everything(n32, semisimple):
    pool = pool_of(n32)
    assert is_n_cluster_tilting(pool, 1, pool)
    assert not is_n_cluster_tilting(pool[:4], 1, pool)
    spool = pool_of(semisimple)
    assert is_n_cluster_tilting(spool, 2, spool)


def test_rigidity_examples(n32):
    # projectives are rigid for every n (tau_n vanishes)
    for x in n32.vertices:
        P = projective_at(n32, x)
        assert is_G_tau_n_rigid(P, 1)
        assert is_G_tau_n_rigid(P, 2)
    # Lambda as a module is rigid at n=1
    lam = direct_sum([projective_at(n32, x) for x in n32.vertices])[0]
    assert is_G_tau_n_rigid(lam, 1)
    # simples: rigid iff tau moves them (it does: the tau-orbit is a 3-cycle)
    for x in n32.vertices:
        S = simple_at(n32, x)
        T = tau(S)
        assert not is_isomorphic(T, S)
        assert is_G_tau_n_rigid(S, 1) == (hom_dim(S, T) == 0)
        assert is_G_tau_n_rigid(S, 1)


def test_rigid_pairs(n32):
    lam = direct_sum([projective_at(n32, x) for x in n32.vertices])[0]
    Z = zero_module(n32)
    assert is_rigid_pair(lam, Z, 1)  # P = 0 reduces to rigidity
    assert is_rigid_pair(Z, lam, 1)  # M = 0 always a rigid pair
    # (S_1, P_x): allowed only when Hom(P_x, S_1) = 0, i.e. x != 1
    S1 = simple_at(n32, "1")
    assert not is_rigid_pair(S1, projective_at(n32, "1"), 1)
    assert is_rigid_pair(S1, projective_at(n32, "2"), 1)


def test_support_pair_lambda(n32):
    graph = graph_of(pool_of(n32))
    lam = direct_sum([projective_at(n32, x) for x in n32.vertices])[0]
    assert is_support_tilting_pair(lam, zero_module(n32), graph)
    # (0, Lambda): every projective lies in add(P), no homs into M = 0
    lamP = direct_sum([projective_at(n32, x) for x in n32.vertices])[0]
    assert is_support_tilting_pair(zero_module(n32), lamP, graph)
    # (Lambda, P_1) fails: Hom(P_1, Lambda) is nonzero
    assert not is_support_tilting_pair(lam, projective_at(n32, "1"), graph)


def test_ambient_gate(n32):
    pool = pool_of(n32)
    with pytest.raises(AmbientNotClusterTilting):
        TiltingGraph(pool[:2], 1, pool)


def test_enumeration_semisimple(semisimple):
    pairs = enumerate_support_tilting_pairs(graph_of(pool_of(semisimple)))
    # for a semisimple algebra every module is projective and rigid; the
    # support pairs are exactly the (complementary) subsets: brute oracle
    assert len(pairs) == 2 ** len(semisimple.vertices)
    for msel, psel in pairs:
        assert len(msel) + len(psel) == len(semisimple.vertices)


def test_enumeration_matches_air_shape(n32):
    # every support tilting pair has |M| + |P| = number of simples (an
    # independent structural fact for tau-tilting theory at n=1)
    pairs = enumerate_support_tilting_pairs(graph_of(pool_of(n32)))
    assert len(pairs) == 14
    for msel, psel in pairs:
        assert len(msel) + len(psel) == 3


def test_enumeration_cover_matches_base(n32, n32_cover):
    pairs_up = enumerate_support_tilting_pairs(graph_of(list_indecomposables(n32_cover, dimcap=8)))
    pairs_down = enumerate_support_tilting_pairs(graph_of(pool_of(n32)))
    assert len(pairs_up) == len(pairs_down) == 14


def test_tilting_pushdown_instances(n32, n32_cover):
    pool_up = list_indecomposables(n32_cover, dimcap=8)
    projs = [projective_at(n32_cover, x) for x in n32_cover.fundamental_domain()]
    # (Lambda, 0): the generators that are twists of the projectives
    lam = tuple(sorted(class_index(Q, pool_up) for Q in projs))
    rep = verify_tilting_pushdown((lam, ()), graph_of(pool_up), graph_of(pool_of(n32)))
    assert rep.outcome is True
    assert rep.witnesses[0]["upstairs"] is True
    assert rep.instance["M_dim"] == direct_sum(projs)[0].total_dim


def test_scan_finite(n32_cover, loop2_cover):
    rep = scan_tau_n_tilting_finite(n32_cover, 1, dimcap=8)
    assert rep.outcome is True
    for entry in rep.witnesses[0]["per_vertex"]:
        assert entry["upstairs_orbits"] == entry["downstairs"]
    rep2 = scan_tau_n_tilting_finite(loop2_cover, 1, dimcap=8)
    assert rep2.outcome is True


def test_rigidity_twist_invariance(n32_cover):
    from quivercover import twist_module

    S = simple_at(n32_cover, ("1", (0,)))
    for a in [(1,), (-1,), (2,)]:
        assert is_G_tau_n_rigid(S, 1) == is_G_tau_n_rigid(twist_module(S, a), 1)


def test_pushdown_preserves_rigidity(n32_cover):
    from quivercover import list_indecomposables as li
    from quivercover import push_down as pd

    for rep in li(n32_cover, dimcap=8):
        assert is_G_tau_n_rigid(rep, 1) == is_G_tau_n_rigid(pd(rep), 1)


def test_rigidity_verdict_is_kept_on_the_module(n32_cover, monkeypatch):
    from quivercover import tautilt

    calls = []
    original = tautilt.tau_n

    def counting(M, n):
        calls.append((M, n))
        return original(M, n)

    monkeypatch.setattr(tautilt, "tau_n", counting)
    S = simple_at(n32_cover, ("2", (0,)))
    first = is_G_tau_n_rigid(S, 1)
    assert is_G_tau_n_rigid(S, 1) == first
    assert len(calls) == 1
    is_G_tau_n_rigid(S, 2)  # another n is another verdict
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# a brute-force reference: every (module subset, projective subset), with
# rigidity and maximality tested on the direct sums themselves


def _sum(mods, carrier):
    return direct_sum(mods)[0] if mods else zero_module(carrier)


def _hom_vanishes(A, B):
    if A.is_zero() or B.is_zero():
        return True
    if A.carrier.is_cover:
        return ext_twist_sum(A, B, 0)[0] == 0
    return hom_dim(A, B) == 0


def _summands(M):
    return [piece for piece, _ in decompose(M)]


def reference_is_pair(M, P, n, ambient):
    carrier = (M if not M.is_zero() else P).carrier
    if not is_rigid_pair(M, P, n):
        return False
    M_summands = _summands(M)
    if not all(class_index(S, ambient) is not None for S in M_summands):
        return False
    for N in ambient:
        MN = direct_sum([M, N])[0] if not M.is_zero() else N
        if is_rigid_pair(MN, P, n) and class_index(N, M_summands) is None:
            return False
    P_summands = _summands(P)
    for x in carrier.fundamental_domain():
        Q = projective_at(carrier, x)
        in_add_P = class_index(Q, P_summands) is not None
        if in_add_P != _hom_vanishes(Q, M):
            return False
    return True


def reference_pairs(ambient, n, pool):
    assert is_n_cluster_tilting(ambient, n, pool)
    carrier = ambient[0].carrier
    projs = [projective_at(carrier, x) for x in carrier.fundamental_domain()]
    out = []
    for msel in itertools.product((0, 1), repeat=len(ambient)):
        M = _sum([X for X, s in zip(ambient, msel) if s], carrier)
        for psel in itertools.product((0, 1), repeat=len(projs)):
            P = _sum([Q for Q, s in zip(projs, psel) if s], carrier)
            if reference_is_pair(M, P, n, ambient):
                out.append(
                    (
                        tuple(i for i, s in enumerate(msel) if s),
                        tuple(i for i, s in enumerate(psel) if s),
                    )
                )
    return out


def _graph(carrier):
    return graph_of(list_indecomposables(carrier, dimcap=8))


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("name", ["ka2", "ka3", "n32", "loop2", "ausl2"])
def test_enumeration_matches_the_subset_reference(name, cover, request):
    pres = request.getfixturevalue(name)
    graph = _graph(smash_cover(pres) if cover else pres)
    pairs = enumerate_support_tilting_pairs(graph)
    assert pairs  # (Lambda, 0) at least
    assert pairs == reference_pairs(graph.ambient, 1, graph.ambient)


def test_pair_predicate_matches_the_reference_on_every_subset(n32):
    graph = _graph(n32)
    ambient = graph.ambient
    projs = [projective_at(n32, x) for x in n32.vertices]
    Ps = [
        _sum([Q for Q, s in zip(projs, psel) if s], n32)
        for psel in itertools.product((0, 1), repeat=len(projs))
    ]
    verdicts = []
    for msel in itertools.product((0, 1), repeat=len(ambient)):
        M = _sum([X for X, s in zip(ambient, msel) if s], n32)
        for P in Ps:
            verdict = is_support_tilting_pair(M, P, graph)
            assert verdict == reference_is_pair(M, P, 1, ambient)
            verdicts.append(verdict)
    assert sum(verdicts) == 14


def test_sixcycle_enumeration_finishes(sixcycle):
    # 2^12 module subsets times 2^6 projective subsets for a subset search
    pairs = enumerate_support_tilting_pairs(_graph(sixcycle))
    assert len(pairs) == 198
    for msel, psel in pairs:
        assert len(msel) + len(psel) == 6


def test_enumeration_translates_each_generator_once(monkeypatch):
    from conftest import golden_doc

    from quivercover import load_presentation, tautilt

    calls = []
    original = tautilt.tau_n

    def counting(M, n):
        calls.append(M)
        return original(M, n)

    monkeypatch.setattr(tautilt, "tau_n", counting)
    n32 = load_presentation(golden_doc("n32"))  # fresh modules, nothing kept on them
    graph = _graph(n32)
    assert len(enumerate_support_tilting_pairs(graph)) == 14
    assert 0 < len(calls) <= len(graph.ambient)


@pytest.mark.parametrize("name", ["n32", "loop2", "ka2"])
def test_tilting_pushdown_on_index_pairs_matches_the_module_path(name, request):
    # the module path: build each pair's sums and ask the module predicate
    # upstairs and on their push-downs
    pres = request.getfixturevalue(name)
    cover = smash_cover(pres)
    graph_up, graph_down = _graph(cover), _graph(pres)
    projs = [projective_at(cover, x) for x in cover.fundamental_domain()]
    pairs = enumerate_support_tilting_pairs(graph_up)
    assert pairs
    for msel, psel in pairs:
        M = _sum([graph_up.ambient[i] for i in msel], cover)
        P = _sum([projs[k] for k in psel], cover)
        up = is_support_tilting_pair(M, P, graph_up)
        down = is_support_tilting_pair(push_down(M), push_down(P), graph_down)
        rep = verify_tilting_pushdown((msel, psel), graph_up, graph_down)
        assert rep.witnesses[0] == {"upstairs": up, "downstairs": down}
        assert (rep.instance["M_dim"], rep.instance["P_dim"]) == (M.total_dim, P.total_dim)
        assert rep.outcome is True


def test_tilting_pushdown_claim_pushes_each_summand_down_once(monkeypatch):
    from quivercover import covering, load_presentation
    from quivercover.cli import _tilting_graph, build_parser, run_claim
    from tests.conftest import golden_doc

    pres = load_presentation(golden_doc("n32"))  # nothing pushed down yet
    args = build_parser().parse_args(
        ["check", "--input", "n32.json", "--claim", "TiltingPushdown"]
    )
    cover = smash_cover(pres)  # the claim's cover
    ambient_up = _tilting_graph(cover, 1, args.dimcap).ambient
    projs = [projective_at(cover, x) for x in cover.fundamental_domain()]
    allowed = {id(X) for X in ambient_up + projs}
    computed = []
    original = covering._shift_blocks

    def recording(M, v):
        computed.append((id(M), v))
        return original(M, v)

    monkeypatch.setattr(covering, "_shift_blocks", recording)
    rep = run_claim(pres, "TiltingPushdown", 1, args)
    assert rep.outcome is True
    assert computed and len(computed) == len(set(computed))  # once per module
    assert {m for m, _ in computed} <= allowed
