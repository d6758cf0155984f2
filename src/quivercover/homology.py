"""Minimal resolutions, syzygies, transpose, AR translates, Ext spaces,
approximations, and injective/dominant dimension.

Resolutions are cached per module (get-or-compute on the module's private
cache; safe under CPython since recomputation is idempotent).  All dimension
answers are exact integers; bounded searches return an explicit "at least"
marker instead of an integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import ShapeMismatch
from .field import Mat, hstack, kernel_basis, rank, rref
from .modules import (
    FDModule,
    ModMorphism,
    ProjCover,
    SubcategorySpec,
    combine,
    decompose,
    direct_sum,
    dual_module,
    dual_morphism,
    hom_basis,
    kernel_module,
    morphism_coords,
    projective_at,
    projective_cover,
    radical_inclusion,
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

    def to_json(self):
        return {"kind": self.kind, "value": self.value}

    def __str__(self):
        return str(self.value) if self.kind == "exact" else f">={self.value}"


# ---------------------------------------------------------------------------
# resolutions


@dataclass
class Resolution:
    """A finite stretch of a minimal (co)resolution with its certificates."""

    direction: str  # "projective" | "injective"
    base: FDModule
    terms: list  # FDModule
    maps: list  # ModMorphism between consecutive terms
    augmentation: ModMorphism
    summand_vertices: list
    minimal: bool = True

    def term(self, i: int) -> FDModule:
        if i < len(self.terms):
            return self.terms[i]
        return zero_module(self.base.carrier)


class _ProjData:
    """Internal minimal-projective-resolution state, extendable on demand."""

    def __init__(self, M: FDModule):
        self.base = M
        self.covers: list[ProjCover] = []
        self.kernels: list[FDModule] = []  # kernels[i] = ker(covers[i].epi)
        self.inclusions: list[ModMorphism] = []

    def stage(self, i: int) -> FDModule:
        """The i-th syzygy-with-projective-summands (stage 0 is M itself)."""
        return self.base if i == 0 else self.kernels[i - 1]

    def extend_to(self, k: int):
        while len(self.covers) <= k:
            current = self.stage(len(self.covers))
            cov = projective_cover(current)
            self.covers.append(cov)
            if current.is_zero():
                self.kernels.append(current)
                self.inclusions.append(zero_morphism(current, current))
                continue
            K, incl = kernel_module(cov.epi)
            self.kernels.append(K)
            self.inclusions.append(incl)

    def diff(self, i: int) -> ModMorphism:
        """d_i: P_i -> P_{i-1} (i >= 1)."""
        return self.inclusions[i - 1] @ self.covers[i].epi


def _proj_data(M: FDModule, k: int) -> _ProjData:
    data = M._cache.get("projdata")
    if data is None:
        data = _ProjData(M)
        M._cache["projdata"] = data
    data.extend_to(k)
    return data


def min_proj_resolution(M: FDModule, k: int) -> Resolution:
    """Minimal projective resolution of length k (terms P_0 .. P_k)."""
    data = _proj_data(M, k)
    terms = [data.covers[i].module for i in range(k + 1)]
    maps = [data.diff(i) for i in range(1, k + 1)]
    return Resolution(
        "projective",
        M,
        terms,
        maps,
        data.covers[0].epi,
        [data.covers[i].vertices for i in range(k + 1)],
    )


def _dual(M: FDModule) -> FDModule:
    """D M, memoised on M for the injective coresolution and dimension only:
    keeping the dual of every cosyzygy and translate raises peak memory."""
    DM = M._cache.get("dual")
    if DM is None:
        DM = M._cache["dual"] = dual_module(M)
    return DM


def min_inj_coresolution(M: FDModule, k: int) -> Resolution:
    """Minimal injective coresolution of length k, via the dual module."""
    res = min_proj_resolution(_dual(M), k)
    terms = [dual_module(P) for P in res.terms]
    maps = [dual_morphism(d) for d in res.maps]
    aug = dual_morphism(res.augmentation)
    return Resolution("injective", M, terms, maps, aug, res.summand_vertices)


def check_resolution(res: Resolution) -> bool:
    """Exactness, zero composites, and minimality certificates."""
    if res.direction == "injective":
        dual_res = Resolution(
            "projective",
            dual_module(res.base),
            [dual_module(t) for t in res.terms],
            [dual_morphism(d) for d in res.maps],
            dual_morphism(res.augmentation),
            res.summand_vertices,
            res.minimal,
        )
        return check_resolution(dual_res)
    seq = [res.augmentation] + res.maps
    for f, g in zip(seq, seq[1:]):
        if not (f @ g).is_zero():
            return False
    for i, incoming in enumerate(res.maps):
        outgoing = seq[i]
        P = res.terms[i]
        for x in P.support:
            if rank(incoming.vertex(x)) != P.dim(x) - rank(outgoing.vertex(x)):
                return False
    if res.minimal:
        for d in res.maps:
            _, incl = radical_inclusion(d.tgt)
            for x in d.mats:
                radb = incl.vertex(x)
                m = d.vertex(x)
                combined = hstack([radb, m]) if radb.cols else m
                if rank(combined) != rank(radb):
                    return False
    return True


# ---------------------------------------------------------------------------
# syzygies and stable representatives


def is_projective_module(Q: FDModule) -> bool:
    if Q.is_zero():
        return True
    cov = projective_cover(Q)
    return cov.module.dims == Q.dims and cov.epi.is_iso()


def is_injective_module(Q: FDModule) -> bool:
    return is_projective_module(dual_module(Q))


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
    data = _proj_data(M, i - 1)
    return strip_summands(data.stage(i), is_projective_module)


def cosyzygy(M: FDModule, i: int = 1) -> FDModule:
    """Stable i-th cosyzygy (no injective summands)."""
    if i == 0:
        return M
    DM = dual_module(M)
    data = _proj_data(DM, i - 1)
    return strip_summands(dual_module(data.stage(i)), is_injective_module)


# ---------------------------------------------------------------------------
# transpose and the AR translates


def _sum_of_projectives(carrier, verts):
    if not verts:
        Z = zero_module(carrier)
        return Z, [], []
    return direct_sum([projective_at(carrier, v) for v in verts])


def hom_from_yoneda(carrier, a, b, combo: dict) -> ModMorphism:
    """The morphism C(-, a) -> C(-, b) represented by combo in C(a, b)."""
    Pa = projective_at(carrier, a)
    Pb = projective_at(carrier, b)
    field = carrier.field
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


def yoneda_cokernel(carrier, srcs: list, tgts: list, combos: dict) -> FDModule:
    """The cokernel of the map from the sum of the representables at srcs to
    the sum of those at tgts whose (i, j) component is given by the Yoneda
    element combos[(i, j)] of C(srcs[i], tgts[j]) (absent or empty: zero)."""
    S, _, S_prj = _sum_of_projectives(carrier, srcs)
    T, T_inc, _ = _sum_of_projectives(carrier, tgts)
    t = zero_morphism(S, T)
    for (i, j), combo in combos.items():
        if combo:
            t = t + (T_inc[j] @ hom_from_yoneda(carrier, srcs[i], tgts[j], combo) @ S_prj[i])
    return cokernel_module(t)[0]


def transpose(M: FDModule) -> FDModule:
    """Tr M over the opposite carrier, from a minimal projective presentation."""
    carrier = M.carrier
    op = carrier.opposite()
    if M.is_zero():
        return zero_module(op)
    data = _proj_data(M, 1)
    verts0 = list(data.covers[0].vertices)
    verts1 = list(data.covers[1].vertices)
    d1 = data.diff(1)
    if not verts1:
        return zero_module(op)
    # Yoneda coefficients of each component P_{b_j} -> P_{a_i}
    P0cov, P1cov = data.covers[0], data.covers[1]
    combos = {}
    for j, b in enumerate(verts1):
        # basis vector of P1(b) that is the identity path of summand j
        labels_bb = carrier.hom_labels(b, b)
        e_idx = labels_bb.index(
            next(lab for lab in labels_bb if not carrier.label_word(b, b, lab))
        )
        inc = P1cov.inclusions[j].vertex(b)
        e_vec = inc[:, [e_idx]]
        img = d1.vertex(b) @ e_vec
        for i, a in enumerate(verts0):
            block = P0cov.projections[i].vertex(b) @ img
            combo = {}
            for lab, c in zip(carrier.hom_labels(b, a), block.entries()):
                if c != 0:
                    combo[lab] = c
            # the Yoneda element of C(b, a) is also an element of C^op(a, b)
            combos[(i, j)] = combo
    return yoneda_cokernel(op, verts0, verts1, combos)


def tau(M: FDModule) -> FDModule:
    """The AR translate D Tr."""
    return dual_module(transpose(M))


def tau_minus(M: FDModule) -> FDModule:
    """The inverse AR translate Tr D."""
    return transpose(dual_module(M))


def tau_n(M: FDModule, n: int) -> FDModule:
    """Higher translate: tau of the (n-1)-st syzygy along the minimal resolution."""
    if n < 1:
        raise ShapeMismatch("tau_n needs n >= 1")
    if n == 1:
        return tau(M)
    data = _proj_data(M, n - 2)
    return tau(data.stage(n - 1))


def tau_n_minus(M: FDModule, n: int) -> FDModule:
    if n < 1:
        raise ShapeMismatch("tau_n_minus needs n >= 1")
    if n == 1:
        return tau_minus(M)
    DM = dual_module(M)
    data = _proj_data(DM, n - 2)
    return tau_minus(dual_module(data.stage(n - 1)))


# ---------------------------------------------------------------------------
# Ext spaces


@dataclass
class ExtSpace:
    degree: int
    dim: int
    cocycles: list = dc_field(default_factory=list)  # morphisms P_degree -> N


def _coords_matrix(basis, morphisms) -> Mat:
    """Columns: coordinates of each morphism in the given hom basis."""
    field = (basis[0] if basis else morphisms[0]).src.carrier.field
    cols = []
    for phi in morphisms:
        c = morphism_coords(basis, phi)
        if c is None:
            raise ShapeMismatch("morphism outside the hom space")
        cols.append(c if c.cols else Mat.zeros(field, 0, 1))
    return hstack(cols) if cols else Mat.zeros(field, len(basis), 0)


def _hom_complex_ext(terms, maps, N, i: int) -> ExtSpace:
    """Cohomology at degree i of Hom(term_., N) for a resolution.

    terms = [A_0 .. A_{i+1}], maps[j]: A_{j+1} -> A_j.
    """
    field = N.carrier.field
    H = [hom_basis(t, N) for t in terms]
    if i == 0:
        if not H[0]:
            return ExtSpace(0, 0, [])
        if len(terms) == 1 or not H[1]:
            return ExtSpace(0, len(H[0]), list(H[0]))
        delta0 = _coords_matrix(H[1], [phi @ maps[0] for phi in H[0]])
        kern = kernel_basis(delta0)
        cocycles = [combine(H[0], col) for col in kern.transpose().tolists()]
        return ExtSpace(0, len(cocycles), cocycles)
    if len(H[i]) == 0:
        return ExtSpace(i, 0, [])
    if len(terms) > i + 1 and H[i + 1]:
        delta_i = _coords_matrix(H[i + 1], [phi @ maps[i] for phi in H[i]])
        kern = kernel_basis(delta_i)
    else:
        kern = Mat.identity(field, len(H[i]))
    if H[i - 1]:
        delta_prev = _coords_matrix(H[i], [phi @ maps[i - 1] for phi in H[i - 1]])
        img_rank = rank(delta_prev)
        # representatives: kernel vectors modulo the image
        aug = hstack([delta_prev, kern])
        red, pivots = rref(aug)
        chosen = [p - delta_prev.cols for p in pivots if p >= delta_prev.cols]
        reps = kern[:, chosen]
    else:
        reps = kern
    cocycles = [combine(H[i], col) for col in reps.transpose().tolists()]
    return ExtSpace(i, len(cocycles), cocycles)


def ext_space(M: FDModule, N: FDModule, i: int) -> ExtSpace:
    """Ext^i(M, N) from the minimal projective resolution of M."""
    if i < 0:
        raise ShapeMismatch("ext degree must be >= 0")
    if M.is_zero() or N.is_zero():
        return ExtSpace(i, 0, [])
    res = min_proj_resolution(M, i + 1)
    return _hom_complex_ext(res.terms, res.maps, N, i)


def ext_dim(M: FDModule, N: FDModule, i: int) -> int:
    return ext_space(M, N, i).dim


# ---------------------------------------------------------------------------
# approximations


def approximation_objects(U: SubcategorySpec, M: FDModule) -> list:
    """Generators of U (plus their twists whose support meets M's over a
    covering carrier)."""
    out = list(U.generators)
    carrier = U.carrier
    if U.twisted:
        from .covering import twist_module

        for gen in U.generators:
            for a in twist_candidates(carrier.group, gen.support, M.support):
                if carrier.group.is_identity(a):
                    continue
                out.append(twist_module(gen, a))
    return out


def right_approximation(U: SubcategorySpec, M: FDModule) -> ModMorphism:
    """The evaluation map ⊕ U_i ⊗ Hom(U_i, M) -> M."""
    return _evaluation_map(U, M)[0]


def _evaluation_map(U: SubcategorySpec, M: FDModule) -> tuple:
    """The evaluation map, with the module of each summand of its source in
    direct-sum order."""
    pieces = []
    comps = []
    for Uo in approximation_objects(U, M):
        for phi in hom_basis(Uo, M):
            pieces.append(Uo)
            comps.append(phi)
    if not pieces:
        return zero_morphism(zero_module(M.carrier), M), []
    S, incs, prjs = direct_sum(pieces)
    f = zero_morphism(S, M)
    for phi, prj in zip(comps, prjs):
        f = f + (phi @ prj)
    return f, pieces


def is_right_approximation(U: SubcategorySpec, f: ModMorphism) -> bool:
    """Every morphism from U (and its twists) factors through f."""
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


# ---------------------------------------------------------------------------
# injective and dominant dimension


def proj_dim_upto(M: FDModule, bound: int) -> DimBound:
    if M.is_zero():
        return DimBound.exact(-1)
    data = _proj_data(M, bound)
    for d in range(bound + 1):
        if data.kernels[d].is_zero():
            return DimBound.exact(d)
    return DimBound.at_least(bound + 1)


def inj_dim_upto(M: FDModule, bound: int) -> DimBound:
    if M.is_zero():
        return DimBound.exact(-1)
    return proj_dim_upto(_dual(M), bound)


def dominant_dimension_upto(carrier, bound: int) -> DimBound:
    """max d <= bound with the first d injective-coresolution terms of every
    projective being projective; computed on the fundamental domain."""
    best = None
    for x in carrier.fundamental_domain():
        P = projective_at(carrier, x)
        res = min_inj_coresolution(P, bound)
        d = 0
        for j in range(bound):
            term = res.term(j)
            if term.is_zero():
                d = bound  # coresolution ended; remaining terms are zero
                break
            if all(
                is_projective_module(piece) for piece, _ in decompose(term)
            ):
                d = j + 1
            else:
                break
        if best is None or d < best:
            best = d
        if best == 0:
            return DimBound.exact(0)
    if best is None:
        return DimBound.at_least(bound)
    if best >= bound:
        return DimBound.at_least(bound)
    return DimBound.exact(best)
