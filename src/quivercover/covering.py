"""The group machinery on module categories: twists, push-down and the
covering-theoretic verifiers."""

from __future__ import annotations

from .cover import CoverCarrier
from .errors import HypothesisUnverified, ShapeMismatch
from .field import Mat
from .homology import ext_dim, min_proj_resolution
from .modules import (
    FDModule,
    ModMorphism,
    decompose,
    is_indecomposable,
    is_isomorphic,
    twist_candidates,
)
from .report import VerificationReport


# ---------------------------------------------------------------------------
# twisting


def twist_module(M: FDModule, a) -> FDModule:
    """The twist: reindex the support by the action of a."""
    carrier = M.carrier
    if not carrier.is_cover:
        raise ShapeMismatch("twisting needs a covering carrier")
    if carrier.group.is_identity(a):
        return M
    dims = {carrier.twist_object(a, x): d for x, d in M.dims.items()}
    mats = {carrier.twist_generator(a, g): m for g, m in M.gen_mats.items()}
    return FDModule(carrier, dims, mats)


def canonical_orbit_rep(M: FDModule) -> FDModule:
    """Twist so the minimal support shift is the identity (deterministic)."""
    carrier = M.carrier
    if not carrier.is_cover or M.is_zero():
        return M
    shifts = sorted({g for (_, g) in M.support})
    return twist_module(M, carrier.group.inv(shifts[0]))


def twisted_iso(M: FDModule, N: FDModule):
    """Some a with ^aM ≅ N, or None.  Candidates come from support matching."""
    if M.total_dim != N.total_dim:
        return None
    for a in twist_candidates(M.carrier.group, M.support, N.support):
        T = twist_module(M, a)
        if T.dims != N.dims:
            continue
        if is_isomorphic(T, N):
            return a
    return None


def class_index(M: FDModule, classes: list):
    """The index of the first class C holding M, or None: M ≅ C, or, over a
    covering carrier, ^aM ≅ C for some twist a.  This is the one class test
    across the covering."""
    twisted = M.carrier.is_cover
    for j, C in enumerate(classes):
        if twisted_iso(M, C) is not None if twisted else is_isomorphic(M, C):
            return j
    return None


# ---------------------------------------------------------------------------
# push-down


def _shift_blocks(M: FDModule, v):
    """Ordered (shift, dim, offset) blocks of (push-down M)(v).

    The support lists objects shift by shift, so the blocks come in
    increasing shift order."""
    blocks = []
    off = 0
    for x in M.support:
        if x[0] == v:
            d = M.dims[x]
            blocks.append((x[1], d, off))
            off += d
    return blocks, off


def push_down(M: FDModule) -> FDModule:
    """Sum the module over every orbit of objects; lands over the base.
    The push-down is kept on M, so its decomposition is shared."""
    if "push_down" in M._cache:
        return M._cache["push_down"]
    cover = M.carrier
    if not cover.is_cover:
        raise ShapeMismatch("push-down expects a covering module")
    pres = cover.base_presentation
    field = pres.field
    blocks = {}
    dims = {}
    for v in pres.vertices:
        b, total = _shift_blocks(M, v)
        blocks[v] = b
        if total:
            dims[v] = total
    mats = {}
    for a in pres.arrows:
        dv, dw = dims.get(a.src, 0), dims.get(a.tgt, 0)
        if dv == 0 or dw == 0:
            continue
        col = {g: off for g, _, off in blocks[a.tgt]}
        placed = []
        for g, _, off in blocks[a.src]:
            h = cover.group.op(g, a.weight)
            if h in col:
                placed.append((off, col[h], M.mat((a.name, g))))
        mats[a.name] = Mat.from_blocks(field, dv, dw, placed)
    M._cache["push_down"] = FDModule(pres, dims, mats)
    return M._cache["push_down"]


def push_down_morphism(f: ModMorphism) -> ModMorphism:
    cover = f.src.carrier
    pres = cover.base_presentation
    field = pres.field
    PX = push_down(f.src)
    PY = push_down(f.tgt)
    mats = {}
    for v in pres.vertices:
        if not PX.dim(v) and not PY.dim(v):
            continue
        sb, _ = _shift_blocks(f.src, v)
        tb, _ = _shift_blocks(f.tgt, v)
        trow = {g: off for g, _, off in tb}
        placed = [(trow[g], off, f.vertex((v, g))) for g, _, off in sb if g in trow]
        mats[v] = Mat.from_blocks(field, PY.dim(v), PX.dim(v), placed)
    return ModMorphism(PX, PY, mats)


def ext_twist_sum(X: FDModule, Y: FDModule, i: int) -> tuple:
    """(sum over a of dim Ext^i(X, ^aY), contributing twist list), Ext^0
    being Hom.

    Ext^i(X, N) is a subquotient of Hom(P_i, N), the sum of N(x) over the
    objects x of the summands of P_i, so only the twists that move Y onto
    one of those objects can contribute."""
    total = 0
    used = []
    objects = min_proj_resolution(X, i).vertices(i)
    for a in twist_candidates(X.carrier.group, Y.support, objects):
        d = ext_dim(X, twist_module(Y, a), i)
        if d:
            used.append(a)
        total += d
    return total, used


def ext_vanishes(A: FDModule, B: FDModule, degrees) -> bool:
    """Ext^i(A, B) = 0 for every i in degrees, Ext^0 being Hom; over a
    covering carrier, Ext^i(A, ^aB) = 0 for every twist a as well.  This is
    the one vanishing test across the covering."""
    if A.is_zero() or B.is_zero():
        return True
    twisted = A.carrier.is_cover
    for i in degrees:
        if ext_twist_sum(A, B, i)[0] if twisted else ext_dim(A, B, i):
            return False
    return True


# ---------------------------------------------------------------------------
# verifiers


def match_pushdowns(ups: list, downs: list, distinct: bool) -> list:
    """Match upstairs modules to base classes through the push-down.

    Entry k is the index in downs of the class isomorphic to push_down(ups[k]),
    or the reason there is none: "decomposable" when that push-down is not
    indecomposable, "unmatched" when no class fits.  With distinct, each base
    class is matched at most once, as the Gabriel bijection requires."""
    used = set()
    out = []
    for X in ups:
        parts = decompose(push_down(X))
        if len(parts) != 1 or parts[0][1] != 1:
            out.append("decomposable")
            continue
        free = [j for j in range(len(downs)) if j not in used]
        k = class_index(parts[0][0], [downs[j] for j in free])
        found = "unmatched" if k is None else free[k]
        if distinct and isinstance(found, int):
            used.add(found)
        out.append(found)
    return out


def _instance_descriptor(carrier, extra=None) -> dict:
    doc = {
        "carrier": carrier.describe(),
        "vertices": list(carrier.base_presentation.vertices),
    }
    if extra:
        doc.update(extra)
    return doc


def verify_ext_iso(X: FDModule, Y: FDModule, i: int) -> VerificationReport:
    """dim Ext^i downstairs between push-downs equals the finite twist sum."""
    cover = X.carrier
    down = ext_dim(push_down(X), push_down(Y), i)
    up, used = ext_twist_sum(X, Y, i)
    group = cover.group
    return VerificationReport(
        claim="DILemma",
        instance=_instance_descriptor(
            cover,
            {
                "degree": i,
                "X_dims": sorted((str(k), v) for k, v in X.dims.items()),
                "Y_dims": sorted((str(k), v) for k, v in Y.dims.items()),
            },
        ),
        outcome=(down == up),
        witnesses=[{"downstairs": down, "upstairs_sum": up}],
        caps={"contributing_twists": [group.element_to_json(a) for a in used]},
    )


def verify_indecomposable_preservation(X: FDModule) -> VerificationReport:
    cover = X.carrier
    if not is_indecomposable(X):
        raise HypothesisUnverified(
            "input is decomposable; the claim only covers indecomposables",
            {"summands": [(m.total_dim, mult) for m, mult in decompose(X)]},
        )
    parts = decompose(push_down(X))
    ok = len(parts) == 1 and parts[0][1] == 1
    return VerificationReport(
        claim="Corres",
        instance=_instance_descriptor(
            cover, {"X_dims": sorted((str(k), v) for k, v in X.dims.items())}
        ),
        outcome=ok,
        witnesses=[{"pushdown_summands": [(m.total_dim, mult) for m, mult in parts]}],
    )


def verify_orbit_bijection(cover: CoverCarrier, dimcap: int = 48, class_cap: int = 512) -> VerificationReport:
    """Twist-orbit classes upstairs biject with base indecomposables."""
    from .knitting import list_indecomposables  # knitting dedupes with class_index

    classes = list_indecomposables(cover, dimcap=dimcap, class_cap=class_cap)
    base = cover.base_presentation
    downs = list_indecomposables(base, dimcap=dimcap, class_cap=class_cap)
    found = match_pushdowns(classes, downs, distinct=True)
    matches = [{("base_index" if isinstance(j, int) else "pushdown"): j} for j in found]
    matched = sum(isinstance(j, int) for j in found)
    ok = matched == len(classes) == len(downs)
    return VerificationReport(
        claim="Corres",
        instance=_instance_descriptor(cover, {"dimcap": dimcap}),
        outcome=ok,
        witnesses=[
            {
                "orbit_classes": len(classes),
                "base_indecomposables": len(downs),
                "matching": matches,
            }
        ],
        caps={"dimcap": dimcap, "class_cap": class_cap},
    )
