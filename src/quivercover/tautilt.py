"""Support tilting machinery: rigidity with respect to the higher translate
(twisted over covering carriers), rigid and support tilting pairs inside an
ambient cluster tilting subcategory, enumeration, and the covering-transfer
scans."""

from __future__ import annotations

from .cover import CoverCarrier
from .errors import AmbientNotClusterTilting
from .homology import tau_n
from .knitting import list_indecomposables
from .modules import FDModule, decompose, projective_at
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


def is_n_cluster_tilting(U: list, n: int, pool: list) -> bool:
    """U equals both of its (n-1)-perpendiculars inside the (exhaustive) pool,
    one module per twist orbit on a covering carrier."""

    def same_as_U(members) -> bool:
        return len(members) == len(U) and all(class_index(r, U) is not None for r in members)

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


class TiltingGraph:
    """The compatibility graph of an n-cluster tilting ambient X_0, X_1, ...
    inside the exhaustive pool, certified when it is built:
    AmbientNotClusterTilting otherwise.

    tau_n and Hom are additive, so (M, P) is a rigid pair exactly when the
    summands of M are rigid and pairwise compatible and no summand of P maps
    to a twist of them: no direct sum is ever built."""

    def __init__(self, ambient: list, n: int, pool: list):
        if not is_n_cluster_tilting(ambient, n, pool):
            raise AmbientNotClusterTilting("the ambient subcategory is not n-cluster tilting")
        X = self.ambient = ambient
        self.n = n
        carrier = X[0].carrier
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

    def is_support_pair(self, S, Q) -> bool:
        """Is (S, Q), generator and projective indices or None, a support
        tilting pair of the ambient?"""
        if S is None or Q is None or not all(self.fits(i, S[:a]) for a, i in enumerate(S)):
            return False
        return self.support_pair(S) == (S, Q)


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


def is_support_tilting_pair(M: FDModule, P: FDModule, graph: TiltingGraph) -> bool:
    """The maximality and projective-support conditions over the graph's
    ambient.

    Ambient classes are orbit representatives upstairs, and summands are
    matched to them and to the fundamental-domain projectives up to twist.
    """
    S = _summand_indices([piece for piece, _ in decompose(M)], graph.ambient)
    Q = _summand_indices([piece for piece, _ in decompose(P)], graph.projectives)
    return graph.is_support_pair(S, Q)


def enumerate_support_tilting_pairs(graph: TiltingGraph) -> list:
    """The support tilting pairs (M_indices, P_indices) of the graph's ambient.

    Backtracking over the ambient classes in index order, absent branch
    first, visits only rigid cliques, so pairs come in the lexicographic
    order of their 0/1 module selections.  The indices refer to the
    ambient's classes and the fundamental-domain projectives."""
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


def verify_tilting_pushdown(pair: tuple, up: TiltingGraph, down: TiltingGraph) -> VerificationReport:
    """The upstairs support-pair predicate and the downstairs one agree on
    pair = (class indices, projective indices) of the upstairs ambient."""
    msel, psel = pair
    mods = [up.ambient[i] for i in msel]
    projs = [up.projectives[k] for k in psel]

    def down_indices(modules, candidates):  # push-down is additive
        pieces = [piece for X in modules for piece, _ in decompose(push_down(X))]
        return _summand_indices(pieces, candidates)

    upstairs = up.is_support_pair(msel, psel)
    S = down_indices(mods, down.ambient)
    downstairs = down.is_support_pair(S, down_indices(projs, down.projectives))
    return VerificationReport(
        claim="TiltingPushdown",
        instance={
            "n": up.n,
            "M_dim": sum(X.total_dim for X in mods),
            "P_dim": sum(Q.total_dim for Q in projs),
        },
        outcome=(upstairs == downstairs),
        witnesses=[{"upstairs": upstairs, "downstairs": downstairs}],
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
