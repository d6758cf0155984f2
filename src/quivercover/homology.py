"""Minimal resolutions, syzygies, transpose, AR translates, Ext dimensions,
approximations, and injective/dominant dimension.

A module keeps its resolution and, for the injective dimensions, its dual
in its own table, read through `carrier.kept` like every cache.  All
dimension answers are exact integers; bounded searches return an explicit
"at least" marker instead of an integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .carrier import kept
from .errors import ShapeMismatch
from .field import Mat, rank
from .modules import (
    FDModule,
    ModMorphism,
    ProjCover,
    decompose,
    direct_sum,
    dual_module,
    hom_basis,
    hom_dim,
    injective_at,
    kernel_module,
    projective_at,
    projective_cover,
    projective_sum,
    cokernel_module,
    twist_candidates,
    zero_module,
    zero_morphism,
)


# ---------------------------------------------------------------------------
# bounded dimension values


@dataclass(frozen=True)
class DimBound:
    """An exact homological dimension or an explicit lower bound."""

    kind: str  # "exact" | "at-least"
    value: int

    @staticmethod
    def exact(v: int) -> "DimBound":
        return DimBound("exact", v)

    @staticmethod
    def at_least(v: int) -> "DimBound":
        return DimBound("at-least", v)

    def at_most(self, n: int) -> bool:
        """Certainly <= n?"""
        return self.kind == "exact" and self.value <= n

    def at_least_value(self, n: int) -> bool:
        """Certainly >= n?  An exact value or a lower bound of at least n."""
        return self.value >= n

    def __str__(self):
        return str(self.value) if self.kind == "exact" else f">={self.value}"


# ---------------------------------------------------------------------------
# resolutions


class Resolution:
    """The minimal projective resolution of a module, memoised on it and
    extended on demand: stage i is the i-th kernel (stage 0 is the module),
    covers[i] its projective cover P_i -> stage i, and diff i the
    differential.  A kernel is built only when its stage is asked for, so a
    presentation P_1 -> P_0 -> M builds no second syzygy."""

    def __init__(self, M: FDModule):
        self.base = M
        self.covers: list[ProjCover] = []  # covers[i]: P_i -> stage(i)
        self.kernels: list[FDModule] = []  # kernels[i] = ker(covers[i].epi)
        self.inclusions: list[ModMorphism] = []

    def extend_to(self, k: int):
        """Build the covers of the stages up to k."""
        while len(self.covers) <= k:
            self.covers.append(projective_cover(self.stage(len(self.covers))))

    def stage(self, i: int) -> FDModule:
        """The i-th syzygy-with-projective-summands (stage 0 is M itself)."""
        while len(self.kernels) < i:
            self.extend_to(len(self.kernels))
            epi = self.covers[len(self.kernels)].epi
            if epi.tgt.is_zero():
                K, incl = epi.tgt, zero_morphism(epi.tgt, epi.tgt)
            else:
                K, incl = kernel_module(epi)
            self.kernels.append(K)
            self.inclusions.append(incl)
        return self.kernels[i - 1] if i else self.base

    def vertices(self, i: int) -> tuple:
        """The objects x of the summands C(-, x) of P_i, in order."""
        self.extend_to(i)
        return self.covers[i].vertices

    def diff(self, i: int) -> ModMorphism:
        """d_i: P_i -> P_{i-1} (i >= 1); d_0 is the augmentation P_0 -> M."""
        self.extend_to(i)
        if i == 0:
            return self.covers[0].epi
        return self.inclusions[i - 1] @ self.covers[i].epi


def min_proj_resolution(M: FDModule, k: int) -> Resolution:
    """The minimal projective resolution of M, built at least to P_k."""
    res = kept(M._cache, "resolution", lambda: Resolution(M))
    res.extend_to(k)
    return res


def _dual(M: FDModule) -> FDModule:
    """D M, kept on M for the injective dimensions only: keeping the
    dual of every cosyzygy and translate raises peak memory."""
    return kept(M._cache, "dual", lambda: dual_module(M))


# ---------------------------------------------------------------------------
# syzygies and stable representatives


def is_projective_module(Q: FDModule) -> bool:
    if Q.is_zero():
        return True
    cov = projective_cover(Q)
    return cov.module.dims == Q.dims and cov.epi.is_iso()


def strip_summands(M: FDModule, pred) -> FDModule:
    """M without its indecomposable summands that satisfy pred.

    pred must hold for a module exactly when it holds for every indecomposable
    summand (as projectivity and injectivity do), so a module that satisfies
    it whole strips to zero without being decomposed."""
    if M.is_zero():
        return M
    if pred(M):
        return zero_module(M.carrier)
    parts = decompose(M)
    keep = []
    for piece, mult in parts:
        if not pred(piece):
            keep.extend([piece] * mult)
    if not keep:
        return zero_module(M.carrier)
    if len(keep) == sum(m for _, m in parts):
        return M
    return direct_sum(keep)[0]


def syzygy(M: FDModule, i: int = 1) -> FDModule:
    """Stable i-th syzygy (no projective summands)."""
    if i == 0:
        return M
    return strip_summands(min_proj_resolution(M, i - 1).stage(i), is_projective_module)


# ---------------------------------------------------------------------------
# transpose and the AR translates


def yoneda_cokernel(carrier, srcs: list, tgts: list, combos: dict) -> FDModule:
    """The cokernel of the map from the sum of the representables at srcs to
    the sum of those at tgts whose (i, j) component is given by the Yoneda
    element combos[(i, j)] of C(srcs[i], tgts[j]) (absent or empty: zero).
    At y that component, q -> q followed by the element, is the block at the
    offsets of its two summands.  With no srcs the cokernel is the sum at
    tgts itself, which projective_sum shares, so a caller must not change
    it."""
    if not tgts:
        return zero_module(carrier)
    T, t_offsets = projective_sum(carrier, tuple(tgts))
    if not srcs:
        return T
    S, s_offsets = projective_sum(carrier, tuple(srcs))
    field = carrier.field
    placed = {}
    for (i, j), combo in combos.items():
        if not combo:
            continue
        a, b = srcs[i], tgts[j]
        for y, col in s_offsets[i].items():
            row = t_offsets[j].get(y)
            if row is None:
                continue
            index = {lab: r for r, lab in enumerate(carrier.hom_labels(y, b))}
            paths = carrier.hom_labels(y, a)
            m = [[0] * len(paths) for _ in index]
            for k, q in enumerate(paths):
                for lab, c in carrier.compose_combos(y, a, b, {q: field.scalar(1)}, combo).items():
                    m[index[lab]][k] = c
            placed.setdefault(y, []).append((row, col, Mat.from_rows(field, m)))
    mats = {y: Mat.from_blocks(field, T.dim(y), S.dim(y), blocks) for y, blocks in placed.items()}
    return cokernel_module(ModMorphism(S, T, mats))[0]


def _components(res: Resolution, i: int) -> dict:
    """The components of d_i: P_i -> P_{i-1} (i >= 1) as Yoneda elements:
    combos[(k, j)] is the element of C(b_j, a_k) to which the component of
    summand C(-, b_j) of P_i in summand C(-, a_k) of P_{i-1} sends the
    identity of b_j, as {label: coefficient} (absent: zero)."""
    carrier = res.base.carrier
    d = res.diff(i)
    offsets_src, offsets_tgt = res.covers[i].offsets, res.covers[i - 1].offsets
    targets = res.vertices(i - 1)
    combos = {}
    for j, b in enumerate(res.vertices(i)):
        # the column of d_i at b that is the image of the identity path of summand j
        labels_bb = carrier.hom_labels(b, b)
        e_idx = labels_bb.index(
            next(lab for lab in labels_bb if not carrier.label_word(b, b, lab))
        )
        img = d.vertex(b)[:, [offsets_src[j][b] + e_idx]].entries()
        for k, a in enumerate(targets):
            o = offsets_tgt[k].get(b)
            if o is None:
                continue
            labels = carrier.hom_labels(b, a)
            combos[(k, j)] = {lab: c for lab, c in zip(labels, img[o : o + len(labels)]) if c != 0}
    return combos


def transpose(M: FDModule) -> FDModule:
    """Tr M over the opposite carrier, from a minimal projective presentation.

    Tr is a bijection from the indecomposable non-projectives to those over
    the opposite, and kills the projectives (Auslander–Reiten–Smalø,
    Representation Theory of Artin Algebras, §IV.1), so a nonzero Tr M of a
    module marked indecomposable is marked too."""
    op = M.carrier.opposite()
    if M.is_zero():
        return zero_module(op)
    res = min_proj_resolution(M, 1)
    verts1 = list(res.vertices(1))
    if not verts1:
        return zero_module(op)
    # the Yoneda element of C(b, a) is also an element of C^op(a, b)
    out = yoneda_cokernel(op, list(res.vertices(0)), verts1, _components(res, 1))
    if M._cache.get("indec") and not out.is_zero():
        out._cache["indec"] = True
    return out


def tau(M: FDModule) -> FDModule:
    """The AR translate D Tr."""
    return dual_module(transpose(M))


def tau_n(M: FDModule, n: int) -> FDModule:
    """Higher translate: tau of the (n-1)-st syzygy along the minimal resolution."""
    if n < 1:
        raise ShapeMismatch("tau_n needs n >= 1")
    if n == 1:
        return tau(M)
    return tau(min_proj_resolution(M, n - 2).stage(n - 1))


def tau_n_minus(M: FDModule, n: int) -> FDModule:
    """Higher inverse translate D tau_n D."""
    return dual_module(tau_n(dual_module(M), n))


# ---------------------------------------------------------------------------
# Ext dimensions


def _offsets(N: FDModule, objects) -> tuple:
    """(offsets, total): where N(x) sits in the sum of N over objects."""
    offsets, total = [], 0
    for x in objects:
        offsets.append(total)
        total += N.dim(x)
    return offsets, total


def _hom_diff_rank(res: Resolution, N: FDModule, i: int) -> int:
    """The rank of Hom(d_i, N): Hom(P_{i-1}, N) -> Hom(P_i, N) (i >= 1).
    By Yoneda, Hom(P_i, N) is the sum of N(b) over the objects b of the
    summands of P_i, and the block of a component of d_i with Yoneda element
    u in C(b, a) is N(u): N(a) -> N(b)."""
    src, tgt = res.vertices(i), res.vertices(i - 1)
    rows, nrows = _offsets(N, src)
    cols, ncols = _offsets(N, tgt)
    if not nrows or not ncols:
        return 0
    blocks = []
    for (k, j), combo in _components(res, i).items():
        b, a = src[j], tgt[k]
        if combo and N.dim(a) and N.dim(b):
            terms = [N.act_label(b, a, lab).scale(c) for lab, c in combo.items()]
            blocks.append((rows[j], cols[k], sum(terms[1:], terms[0])))
    return rank(Mat.from_blocks(N.carrier.field, nrows, ncols, blocks)) if blocks else 0


def ext_dim(M: FDModule, N: FDModule, i: int) -> int:
    """dim Ext^i(M, N): Hom for i = 0; for i >= 1 the cohomology at degree
    i of Hom(P_., N) over the minimal projective resolution P_. of M,
    dim Hom(P_i, N) - rank Hom(d_{i+1}, N) - rank Hom(d_i, N)."""
    if i < 0:
        raise ShapeMismatch("ext degree must be >= 0")
    if i == 0:
        return hom_dim(M, N)
    if M.is_zero() or N.is_zero():
        return 0
    res = min_proj_resolution(M, i + 1)
    dim = _offsets(N, res.vertices(i))[1]
    return dim - _hom_diff_rank(res, N, i + 1) - _hom_diff_rank(res, N, i)


# ---------------------------------------------------------------------------
# approximations


def approximation_objects(U: list, M: FDModule) -> list:
    """The classes of U (plus their twists whose support meets M's over a
    covering carrier)."""
    out = list(U)
    carrier = M.carrier
    if carrier.is_cover:
        from .covering import twist_module

        for gen in U:
            for a in twist_candidates(carrier.group, gen.support, M.support):
                if carrier.group.is_identity(a):
                    continue
                out.append(twist_module(gen, a))
    return out


def _evaluation_map(U: list, M: FDModule) -> tuple:
    """The evaluation map ⊕ U_i ⊗ Hom(U_i, M) -> M, a right
    U-approximation of M, with the module of each summand of its source in
    direct-sum order and the summands' offsets in that source; each basis
    morphism is a block of columns at its summand's offset."""
    pieces = []
    comps = []
    for Uo in approximation_objects(U, M):
        for phi in hom_basis(Uo, M):
            pieces.append(Uo)
            comps.append(phi)
    if not pieces:
        return zero_morphism(zero_module(M.carrier), M), [], []
    S, offsets = direct_sum(pieces)
    mats = {}
    for x in S.support:
        if M.dim(x):
            blocks = [(0, off[x], phi.vertex(x)) for phi, off in zip(comps, offsets) if x in off]
            mats[x] = Mat.from_blocks(M.carrier.field, M.dim(x), S.dim(x), blocks)
    return ModMorphism(S, M, mats), pieces, offsets


# ---------------------------------------------------------------------------
# injective and dominant dimension


def proj_dim_upto(M: FDModule, bound: int) -> DimBound:
    if M.is_zero():
        return DimBound.exact(-1)
    res = min_proj_resolution(M, bound)
    for d in range(bound + 1):
        if res.stage(d + 1).is_zero():
            return DimBound.exact(d)
    return DimBound.at_least(bound + 1)


def inj_dim_upto(M: FDModule, bound: int) -> DimBound:
    if M.is_zero():
        return DimBound.exact(-1)
    return proj_dim_upto(_dual(M), bound)


def dominant_dimension_upto(carrier, bound: int) -> DimBound:
    """max d <= bound with the first d injective-coresolution terms of every
    projective being projective; computed on the fundamental domain.  Term j
    of the coresolution of P is the sum of injective_at(x) over the objects x
    of term j of the projective resolution of D P."""
    best = bound
    for x in carrier.fundamental_domain():
        res = min_proj_resolution(_dual(projective_at(carrier, x)), bound)
        d = 0
        for j in range(bound):
            verts = res.vertices(j)
            if not verts:
                d = bound  # coresolution ended; remaining terms are zero
                break
            if not all(is_projective_module(injective_at(carrier, v)) for v in verts):
                break
            d = j + 1
        best = min(best, d)
        if best == 0:
            return DimBound.exact(0)
    return DimBound.exact(best) if best < bound else DimBound.at_least(bound)
