"""Support tilting machinery: rigidity with respect to the higher translate
(twisted over covering carriers), rigid and support tilting pairs inside an
ambient cluster tilting subcategory, enumeration, and the covering-transfer
scans."""

from __future__ import annotations

from .cover import CoverCarrier
from .errors import AmbientNotClusterTilting
from .homology import tau_n
from .knitting import list_indecomposables
from .modules import (
    FDModule,
    SubcategorySpec,
    decompose,
    projective_at,
)
from .covering import (
    class_index,
    ext_vanishes,
    match_pushdowns,
    push_down,
)
from .precluster import perpendiculars
from .report import VerificationReport


# ---------------------------------------------------------------------------
# ambient checks


def is_n_cluster_tilting(U: SubcategorySpec, n: int, pool: list) -> bool:
    """U equals both of its (n-1)-perpendiculars inside the (exhaustive) pool,
    one module per twist orbit on a covering carrier."""

    def same_as_U(members) -> bool:
        return len(members) == len(U) and all(U.contains_iso(r) for r in members)

    left, right = perpendiculars(U, pool, n)
    return same_as_U(left) and same_as_U(right)


# ---------------------------------------------------------------------------
# rigidity


def _translate(M: FDModule, n: int) -> FDModule:
    """tau_n M, kept on M for its rigidity and its compatibilities."""
    key = ("tau_n", n)
    if key not in M._cache:
        M._cache[key] = tau_n(M, n)
    return M._cache[key]


def is_G_tau_n_rigid(M: FDModule, n: int) -> bool:
    """Hom(M, ^a tau_n M) = 0 for every twist a (plain rigidity downstairs).

    The verdict is kept on M."""
    if M.is_zero():
        return True
    key = ("tau_n_rigid", n)
    if key not in M._cache:
        M._cache[key] = ext_vanishes(M, _translate(M, n), (0,))
    return M._cache[key]


# ---------------------------------------------------------------------------
# support tilting pairs as cliques of the compatibility graph


class _TiltingGraph:
    """The compatibility graph of an n-cluster tilting ambient X_0, X_1, ...

    tau_n and Hom are additive, so (M, P) is a rigid pair exactly when the
    summands of M are rigid and pairwise compatible and no summand of P maps
    to a twist of them: no direct sum is ever built."""

    def __init__(self, ambient: SubcategorySpec, n: int):
        X, carrier = ambient.generators, ambient.carrier
        self.projectives = [projective_at(carrier, x) for x in carrier.fundamental_domain()]
        rigid = self.rigid = [is_G_tau_n_rigid(M, n) for M in X]

        def vanish(i, j):  # Hom(X_i, ^a tau_n X_j) = 0 for all a
            return ext_vanishes(X[i], _translate(X[j], n), (0,))

        # compat[i][j] is asked only of rigid generators: no other enters a pair
        self.compat = [[r and s for s in rigid] for r in rigid]
        for i in range(len(X)):
            for j in range(i):
                if self.compat[i][j]:
                    self.compat[i][j] = self.compat[j][i] = vanish(i, j) and vanish(j, i)
        # perp[i]: the k with Hom(Q_k, ^a X_i) = 0 for all a
        self.perp = [
            frozenset(
                k for k, Q in enumerate(self.projectives) if ext_vanishes(Q, M, (0,))
            )
            for M in X
        ]

    def fits(self, i: int, S: tuple) -> bool:
        """X_i is rigid and compatible with every X_j, j in S."""
        return self.rigid[i] and all(self.compat[i][j] for j in S)

    def support_pair(self, S: tuple):
        """(S, P) if the rigid clique S is the module part of a support tilting
        pair, else None.  The support condition forces P = the Q_k with no
        maps to a twist of M; maximality asks that no generator outside S
        fits S with Hom(P, ^a X) = 0 for all a."""
        P = frozenset(range(len(self.projectives)))
        for i in S:
            P &= self.perp[i]
        for j in range(len(self.rigid)):
            if j not in S and self.fits(j, S) and P <= self.perp[j]:
                return None
        return S, tuple(sorted(P))


def _tilting_graph(ambient: SubcategorySpec, n: int, pool: list) -> _TiltingGraph:
    """The ambient's graph, built and certified n-cluster tilting inside the
    pool once per (ambient, n, pool); AmbientNotClusterTilting otherwise."""
    key = (n, id(pool))
    entry = ambient.cluster_tilting.get(key)
    if entry is None or entry[0] is not pool:
        graph = _TiltingGraph(ambient, n) if is_n_cluster_tilting(ambient, n, pool) else None
        entry = (pool, graph)
        ambient.cluster_tilting[key] = entry
    if entry[1] is None:
        raise AmbientNotClusterTilting("the ambient subcategory is not n-cluster tilting")
    return entry[1]


def _summand_indices(pieces: list, candidates: list):
    """The sorted indices of the candidates whose class holds one of the
    pieces, or None when some piece lies in no candidate's class."""
    found = set()
    for piece in pieces:
        j = class_index(piece, candidates)
        if j is None:
            return None
        found.add(j)
    return tuple(sorted(found))


def _is_support_pair(graph: _TiltingGraph, S, Q) -> bool:
    """Is (S, Q), generator and projective indices or None, a support
    tilting pair of the graph's ambient?"""
    if S is None or Q is None or not all(graph.fits(i, S[:a]) for a, i in enumerate(S)):
        return False
    return graph.support_pair(S) == (S, Q)


def is_support_tilting_pair(
    M: FDModule, P: FDModule, n: int, ambient: SubcategorySpec, pool: list
) -> bool:
    """The maximality and projective-support conditions over the ambient.

    ambient generators are orbit representatives upstairs, and summands are
    matched to them and to the fundamental-domain projectives up to twist;
    pool is the exhaustive indecomposable list that certifies the ambient.
    """
    graph = _tilting_graph(ambient, n, pool)
    S = _summand_indices([piece for piece, _ in decompose(M)], ambient.generators)
    Q = _summand_indices([piece for piece, _ in decompose(P)], graph.projectives)
    return _is_support_pair(graph, S, Q)


def enumerate_support_tilting_pairs(ambient: SubcategorySpec, n: int, pool: list) -> list:
    """The support tilting pairs (M_indices, P_indices) of the ambient.

    Backtracking over the generators in index order, absent branch first,
    visits only rigid cliques, so pairs come in the lexicographic order of
    their 0/1 module selections.  The indices refer to the ambient's
    generators and the fundamental-domain projectives."""
    if ambient.carrier is None:
        return []
    graph = _tilting_graph(ambient, n, pool)
    out = []

    def extend(i: int, S: tuple) -> None:
        if i == len(graph.rigid):
            pair = graph.support_pair(S)
            if pair is not None:
                out.append(pair)
            return
        extend(i + 1, S)
        if graph.fits(i, S):
            extend(i + 1, S + (i,))

    extend(0, ())
    return out


# ---------------------------------------------------------------------------
# transfer verifiers


def verify_tilting_pushdown(
    pair: tuple,
    n: int,
    ambient_up: SubcategorySpec,
    pool_up: list,
    ambient_down: SubcategorySpec,
    pool_down: list,
) -> VerificationReport:
    """The upstairs support-pair predicate and the downstairs one agree on
    pair = (generator indices, projective indices) of the upstairs ambient."""
    msel, psel = pair
    graph_up = _tilting_graph(ambient_up, n, pool_up)
    graph_down = _tilting_graph(ambient_down, n, pool_down)
    mods = [ambient_up.generators[i] for i in msel]
    projs = [graph_up.projectives[k] for k in psel]

    def down_indices(modules, candidates):  # push-down is additive
        pieces = [piece for X in modules for piece, _ in decompose(push_down(X))]
        return _summand_indices(pieces, candidates)

    up = _is_support_pair(graph_up, msel, psel)
    S = down_indices(mods, ambient_down.generators)
    down = _is_support_pair(graph_down, S, down_indices(projs, graph_down.projectives))
    return VerificationReport(
        claim="TiltingPushdown",
        instance={
            "n": n,
            "M_dim": sum(X.total_dim for X in mods),
            "P_dim": sum(Q.total_dim for Q in projs),
        },
        outcome=(up == down),
        witnesses=[{"upstairs": up, "downstairs": down}],
        notes=[
            "support condition: the membership twist and the hom-vanishing "
            "twist are quantified independently"
        ],
    )


def scan_tau_n_tilting_finite(cover: CoverCarrier, n: int, dimcap: int = 48) -> VerificationReport:
    """Per-vertex counts of rigid indecomposables agree across the covering."""
    base = cover.base_presentation
    # rigidity is twist-invariant; test it on the centred representatives
    classes = [rep for rep in list_indecomposables(cover, dimcap=dimcap) if is_G_tau_n_rigid(rep, n)]
    downs = list_indecomposables(base, dimcap=dimcap)
    rigid_down = [Y for Y in downs if is_G_tau_n_rigid(Y, n)]
    # bijection via push-down
    found = match_pushdowns(classes, rigid_down, distinct=True)
    ok = all(isinstance(j, int) for j in found) and len(classes) == len(rigid_down)
    per_vertex = []
    for v in base.vertices:
        # the push-down is nonzero at v iff the module is nonzero at some (v, g)
        up_count = sum(1 for rep in classes if any(x[0] == v for x in rep.support))
        down_count = sum(1 for Y in rigid_down if Y.dim(v))
        per_vertex.append({"vertex": v, "upstairs_orbits": up_count, "downstairs": down_count})
        if up_count != down_count:
            ok = False
    return VerificationReport(
        claim="TiltingFinite",
        instance={"n": n, "carrier": cover.describe()},
        outcome=ok,
        witnesses=[
            {
                "rigid_orbit_classes": len(classes),
                "rigid_downstairs": len(rigid_down),
                "per_vertex": per_vertex,
            }
        ],
        caps={"dimcap": dimcap},
    )
