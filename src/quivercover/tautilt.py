"""Support tilting machinery: rigidity with respect to the higher translate
(twisted over covering carriers), rigid and support tilting pairs inside an
ambient cluster tilting subcategory, enumeration, and the covering-transfer
scans."""

from __future__ import annotations

import itertools

from .cover import CoverCarrier
from .errors import AmbientNotClusterTilting, CapExceeded
from .homology import tau_n
from .knitting import list_indecomposables
from .modules import (
    FDModule,
    SubcategorySpec,
    decompose,
    direct_sum,
    hom_dim,
    projective_at,
    zero_module,
)
from .covering import (
    add_class,
    hom_twist_sum,
    match_pushdowns,
    orbit_representatives,
    push_down,
    same_class,
)
from .precluster import perpendiculars
from .report import VerificationReport

SUBSET_CAP = 1 << 20


# ---------------------------------------------------------------------------
# ambient checks


def is_n_cluster_tilting(U: SubcategorySpec, n: int, pool: list) -> bool:
    """U equals both of its (n-1)-perpendiculars inside the (exhaustive) pool."""
    twisted = U.twisted

    def same_as_U(members) -> bool:
        reps = members
        if twisted:
            reps = []
            for M in members:
                add_class(reps, M, twisted=True)
        if len(reps) != len(U.generators):
            return False
        return all(any(same_class(r, g, twisted) for g in U.generators) for r in reps)

    left, right = perpendiculars(U, pool, n)
    return same_as_U(left) and same_as_U(right)


def _require_cluster_tilting(ambient: SubcategorySpec, n: int, pool: list) -> None:
    """Raise unless the ambient is n-cluster tilting inside the pool.

    The verdict is memoised on the ambient, so each (ambient, n, pool) is
    certified once however many pairs are tested against it."""
    key = (n, id(pool))
    entry = ambient.cluster_tilting.get(key)
    if entry is None or entry[0] is not pool:
        entry = (pool, is_n_cluster_tilting(ambient, n, pool))
        ambient.cluster_tilting[key] = entry
    if not entry[1]:
        raise AmbientNotClusterTilting("the ambient subcategory is not n-cluster tilting")


# ---------------------------------------------------------------------------
# rigidity


def _hom_vanishes_all_twists(A: FDModule, B: FDModule) -> bool:
    if A.is_zero() or B.is_zero():
        return True
    if A.carrier.is_cover:
        return hom_twist_sum(A, B)[0] == 0
    return hom_dim(A, B) == 0


def is_G_tau_n_rigid(M: FDModule, n: int) -> bool:
    """Hom(M, ^a tau_n M) = 0 for every twist a (plain rigidity downstairs).

    The verdict is kept on M, which every projective subset of a tilting
    enumeration tests again."""
    if M.is_zero():
        return True
    key = ("tau_n_rigid", n)
    if key not in M._cache:
        M._cache[key] = _hom_vanishes_all_twists(M, tau_n(M, n))
    return M._cache[key]


def is_rigid_pair(M: FDModule, P: FDModule, n: int) -> bool:
    """(M, P) with P projective: M rigid and Hom(P, ^a M) = 0 for all a."""
    return is_G_tau_n_rigid(M, n) and _hom_vanishes_all_twists(P, M)


def _indec_summands(M: FDModule) -> list:
    if M.is_zero():
        return []
    return [piece for piece, _ in decompose(M)]


def _in_add_of_twists(N: FDModule, summands: list) -> bool:
    """Indecomposable N lies in add of the twists of the given summands."""
    return any(same_class(N, S, N.carrier.is_cover) for S in summands)


def is_support_tilting_pair(
    M: FDModule,
    P: FDModule,
    n: int,
    ambient: SubcategorySpec,
    pool: list,
) -> bool:
    """The maximality and projective-support conditions over the ambient.

    ambient generators are orbit representatives upstairs; pool is the
    exhaustive indecomposable list that certifies the ambient (once per
    ambient, n and pool).  In the support condition, the twist giving
    add-membership of a projective and the twists of the hom-vanishing side
    are quantified independently.
    """
    carrier = (M if not M.is_zero() else P).carrier
    _require_cluster_tilting(ambient, n, pool)
    if not is_rigid_pair(M, P, n):
        return False
    M_summands = _indec_summands(M)
    # membership of M in add(ambient)
    for S in M_summands:
        if not ambient.contains_iso(S):
            return False
    # (1) maximality against every ambient orbit representative
    for N in ambient.generators:
        MN = direct_sum([M, N])[0] if not M.is_zero() else N
        if is_rigid_pair(MN, P, n):
            if not _in_add_of_twists(N, M_summands):
                return False
    # (2) the projective-support biconditional, per fundamental-domain projective
    P_summands = _indec_summands(P)
    for x in carrier.fundamental_domain():
        Q = projective_at(carrier, x)
        in_add_P = _in_add_of_twists(Q, P_summands)
        hom_zero = _hom_vanishes_all_twists(Q, M)
        if in_add_P != hom_zero:
            return False
    return True


# ---------------------------------------------------------------------------
# enumeration


def enumerate_support_tilting_pairs(
    ambient: SubcategorySpec, n: int, pool: list, subset_cap: int = SUBSET_CAP
) -> list:
    """Brute force over subsets of ambient representatives x projective subsets.

    Returns (M_indices, P_indices) pairs; modules are rebuilt by the caller
    from the ambient's generator list and the fundamental-domain projectives.
    """
    carrier = ambient.carrier
    if carrier is None:
        return []
    _require_cluster_tilting(ambient, n, pool)
    items = list(ambient.generators)
    projs = [projective_at(carrier, x) for x in carrier.fundamental_domain()]
    total = (1 << len(items)) * (1 << len(projs))
    if total > subset_cap:
        raise CapExceeded(f"{total} candidate subsets exceed the cap {subset_cap}")
    out = []
    for msel in itertools.product((0, 1), repeat=len(items)):
        mods = [items[i] for i in range(len(items)) if msel[i]]
        M = direct_sum(mods)[0] if mods else zero_module(carrier)
        for psel in itertools.product((0, 1), repeat=len(projs)):
            ps = [projs[i] for i in range(len(projs)) if psel[i]]
            P = direct_sum(ps)[0] if ps else zero_module(carrier)
            if is_support_tilting_pair(M, P, n, ambient, pool):
                out.append(
                    (
                        tuple(i for i in range(len(items)) if msel[i]),
                        tuple(i for i in range(len(projs)) if psel[i]),
                    )
                )
    return out


# ---------------------------------------------------------------------------
# transfer verifiers


def verify_tilting_pushdown(
    M: FDModule,
    P: FDModule,
    n: int,
    ambient_up: SubcategorySpec,
    pool_up: list,
    ambient_down: SubcategorySpec,
    pool_down: list,
) -> VerificationReport:
    """The upstairs support-pair predicate and the downstairs one agree."""
    up = is_support_tilting_pair(M, P, n, ambient_up, pool_up)
    down = is_support_tilting_pair(
        push_down(M), push_down(P), n, ambient_down, pool_down
    )
    return VerificationReport(
        claim="TiltingPushdown",
        instance={
            "n": n,
            "M_dim": M.total_dim,
            "P_dim": P.total_dim,
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
    ups = list_indecomposables(cover, dimcap=dimcap)
    # rigidity is twist-invariant; test it on centered representatives
    classes = [rep for rep in orbit_representatives(ups) if is_G_tau_n_rigid(rep, n)]
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
