"""The group machinery on module categories: twists, push-down, pull-up,
morphism lifting, and the covering-theoretic verifiers."""

from __future__ import annotations

from dataclasses import dataclass

from .cover import CoverCarrier
from .errors import ShapeMismatch, WindowTooSmall
from .field import Mat
from .homology import ext_dim, min_proj_resolution
from .modules import (
    FDModule,
    ModMorphism,
    decompose,
    hom_dim,
    is_indecomposable,
    is_isomorphic,
    twist_candidates,
)
from .report import NOT_APPLICABLE, VerificationReport


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
    return FDModule(carrier, dims, mats, check_shapes=False)


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


def same_class(M: FDModule, N: FDModule, twisted: bool) -> bool:
    """M ≅ N, or ^aM ≅ N for some twist a when twisted."""
    return twisted_iso(M, N) is not None if twisted else is_isomorphic(M, N)


def add_class(classes: list, M: FDModule, twisted: bool) -> bool:
    """Append M to classes unless it is in the same class as a member
    (see same_class); report whether it was appended."""
    if any(same_class(M, C, twisted) for C in classes):
        return False
    classes.append(M)
    return True


# ---------------------------------------------------------------------------
# push-down and pull-up


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
        m = field.zeros(dv, dw)
        col = {g: (d, off) for g, d, off in blocks[a.tgt]}
        for g, d, off in blocks[a.src]:
            h = cover.group.op(g, a.weight)
            if h in col:
                dcol, coff = col[h]
                m[off : off + d, coff : coff + dcol] = M.mat((a.name, g)).a
        mats[a.name] = Mat(field, m)
    M._cache["push_down"] = FDModule(pres, dims, mats, check_shapes=False)
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
        m = field.zeros(PY.dim(v), PX.dim(v))
        trow = {g: (d, off) for g, d, off in tb}
        for g, d, off in sb:
            if g in trow:
                dr, roff = trow[g]
                m[roff : roff + dr, off : off + d] = f.vertex((v, g)).a
        mats[v] = Mat(field, m)
    return ModMorphism(PX, PY, mats)


@dataclass
class PullUp:
    """The pull-up truncated to finitely many shifts; barred from module
    computations unless the shifts are the whole (finite) group."""

    cover: CoverCarrier
    dims: dict
    truncated: bool
    _gen_mats: dict

    def as_module(self) -> FDModule:
        if self.truncated:
            raise WindowTooSmall(
                "the pull-up of a base module is truncated to a window of shifts; "
                "the truncation is not a module and cannot enter Hom/Ext computations"
            )
        return FDModule(self.cover, self.dims, self._gen_mats, check_shapes=False)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())


def pull_up(N: FDModule, cover: CoverCarrier, shifts) -> PullUp:
    """The composite with the covering projection, truncated to the given
    window of shifts (say `group.box(h)`)."""
    pres = cover.base_presentation
    if N.carrier is not pres:
        raise ShapeMismatch("pull-up expects a base module for this cover")
    group = cover.group
    inside = set(shifts)
    dims = {(v, g): N.dim(v) for g in shifts for v in pres.vertices if N.dim(v)}
    mats = {
        (a.name, g): N.mat(a.name)
        for g in shifts
        for a in pres.arrows
        if N.dim(a.src) and N.dim(a.tgt) and group.op(g, a.weight) in inside
    }
    whole = group.is_finite and inside == set(group.all_elements())
    return PullUp(cover, dims, not whole, mats)


# ---------------------------------------------------------------------------
# morphism lifting


@dataclass
class LiftingFamily:
    """Finitely many twists a with morphisms f_a: X -> ^aY assembling theta."""

    pairs: list  # (a, ModMorphism)

    def nonzero(self):
        return [(a, f) for a, f in self.pairs if not f.is_zero()]


def lift_morphism(theta: ModMorphism, X: FDModule, Y: FDModule) -> LiftingFamily:
    """Decompose a morphism of push-downs along the covering.

    theta: push_down(X) -> push_down(Y).  The block structure of theta is cut
    along the shift grading; each piece is verified to be a genuine morphism
    X -> ^aY and the assembly is verified to reproduce theta exactly.  A
    failure aborts: it would signal an internal inconsistency in the covering
    isomorphism.
    """
    cover = X.carrier
    group = cover.group
    pres = cover.base_presentation
    field = pres.field
    pairs = []
    for a in twist_candidates(group, Y.support, X.support):
        aY = twist_module(Y, a)  # (^aY)(v,g) = Y(v, g-a)
        mats = {}
        nonzero = False
        for v in pres.vertices:
            xb, _ = _shift_blocks(X, v)
            yb = {g: (d, off) for g, d, off in _shift_blocks(Y, v)[0]}
            for g, d, off in xb:
                h = group.sub(g, a)
                if h not in yb:
                    continue
                dr, roff = yb[h]
                block = Mat(field, theta.vertex(v).a[roff : roff + dr, off : off + d])
                if not block.is_zero():
                    nonzero = True
                mats[(v, g)] = block
        f = ModMorphism(X, aY, mats)
        if nonzero and not f.check():
            raise ShapeMismatch(
                "lifted block is not a morphism; covering data is inconsistent"
            )
        if nonzero:
            pairs.append((a, f))
    # reassemble and compare against theta
    for v in pres.vertices:
        xb, xdim = _shift_blocks(X, v)
        yb, ydim = _shift_blocks(Y, v)
        m = field.zeros(ydim, xdim)
        ylook = {g: (d, off) for g, d, off in yb}
        for a, f in pairs:
            for g, d, off in xb:
                h = group.sub(g, a)
                if h in ylook:
                    dr, roff = ylook[h]
                    m[roff : roff + dr, off : off + d] = f.vertex((v, g)).a
        if not (Mat(field, m) - theta.vertex(v)).is_zero():
            raise ShapeMismatch("lifting family does not reassemble the morphism")
    return LiftingFamily(pairs)


def hom_twist_sum(X: FDModule, Y: FDModule) -> tuple:
    """(sum over a of dim Hom(X, ^aY), contributing twist list)."""
    total = 0
    used = []
    for a in twist_candidates(X.carrier.group, Y.support, X.support):
        aY = twist_module(Y, a)
        d = hom_dim(X, aY)
        if d:
            used.append(a)
        total += d
    return total, used


def ext_twist_sum(X: FDModule, Y: FDModule, i: int) -> tuple:
    """(sum over a of dim Ext^i(X, ^aY), contributing twist list).

    Twists are cut off by support arithmetic against the first i+2 terms of
    the minimal resolution of X (morphism spaces out of those terms are the
    only carriers of Ext classes)."""
    res = min_proj_resolution(X, i + 1)
    term_support = set(X.support)
    for t in res.terms:
        term_support.update(t.support)
    total = 0
    used = []
    for a in twist_candidates(X.carrier.group, Y.support, term_support):
        aY = twist_module(Y, a)
        d = ext_dim(X, aY, i)
        if d:
            used.append(a)
        total += d
    return total, used


def ext_vanishes(A: FDModule, B: FDModule, n: int, twisted: bool) -> bool:
    """Ext^i(A, B) = 0 for 0 < i < n; when twisted, Ext^i(A, ^aB) = 0 for
    every twist a as well."""
    for i in range(1, n):
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
        found = next(
            (j for j, D in enumerate(downs) if j not in used and is_isomorphic(parts[0][0], D)),
            "unmatched",
        )
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
    down = ext_dim(push_down(X), push_down(Y), i) if i else hom_dim(push_down(X), push_down(Y))
    if i == 0:
        up, used = hom_twist_sum(X, Y)
    else:
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
        return VerificationReport(
            claim="Corres",
            instance=_instance_descriptor(cover),
            outcome=NOT_APPLICABLE,
            notes=["input is decomposable; the claim only covers indecomposables"],
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
    from .knitting import list_indecomposables  # knitting dedupes with add_class

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
