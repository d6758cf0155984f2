"""Finite-dimensional right modules over a carrier.

A module assigns a space to every object and a matrix to every generator;
a generator g: x -> y acts by M(g): M(y) -> M(x) (contravariant convention,
matrix shape dims(x) x dims(y)).  Morphisms are vertexwise matrices subject
to the commuting-square conditions against every generator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

from .carrier import Carrier, OppositeCarrier
from .errors import (
    DecompositionInconclusive,
    RelationViolated,
    ShapeMismatch,
)
from .field import (
    Mat,
    _canonical,
    column_space_basis,
    hstack,
    is_invertible,
    kernel_basis,
    rank,
    rref,
    solve_linear,
    vstack,
)


class FDModule:
    """A finite-dimensional module over a carrier."""

    __slots__ = ("carrier", "dims", "gen_mats", "_cache")

    def __init__(self, carrier: Carrier, dims: dict, gen_mats: dict):
        self.carrier = carrier
        self.dims = {x: int(d) for x, d in dims.items() if d}
        mats = {}
        for g, m in gen_mats.items():
            s, t = carrier.gen_src(g), carrier.gen_tgt(g)
            ds, dt = self.dims.get(s, 0), self.dims.get(t, 0)
            if ds == 0 or dt == 0:
                continue
            if m.shape != (ds, dt):
                raise ShapeMismatch(
                    f"map for generator {g!r} has shape {m.shape}, expected {(ds, dt)}"
                )
            mats[g] = m
        self.gen_mats = mats
        self._cache = {}

    # -- basic views -----------------------------------------------------------

    def dim(self, x) -> int:
        return self.dims.get(x, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def support(self) -> tuple:
        """The objects where M is nonzero, in the carrier's object order."""
        if "support" not in self._cache:
            self._cache["support"] = tuple(
                sorted(self.dims, key=self.carrier.object_index)
            )
        return self._cache["support"]

    def mat(self, g) -> Mat:
        if g in self.gen_mats:
            return self.gen_mats[g]
        s, t = self.carrier.gen_src(g), self.carrier.gen_tgt(g)
        return Mat.zeros(self.carrier.field, self.dim(s), self.dim(t))

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __repr__(self):
        return f"FDModule(dim {self.total_dim} on {len(self.dims)} objects)"

    def evaluate_word(self, word, src, tgt) -> Mat:
        """Action of a generator word (a path src -> tgt) as M(tgt) -> M(src)."""
        field = self.carrier.field
        if not word:
            return Mat.identity(field, self.dim(src))
        out = self.mat(word[0])
        for g in word[1:]:
            out = out @ self.mat(g)
        return out

    def act_label(self, x, y, label) -> Mat:
        """Action M(label): M(y) -> M(x) of a hom-basis element of C(x, y)."""
        return self.evaluate_word(self.carrier.label_word(x, y, label), x, y)


class ModMorphism:
    """A morphism of modules: vertexwise matrices commuting with the action."""

    __slots__ = ("src", "tgt", "mats")

    def __init__(self, src: FDModule, tgt: FDModule, mats: dict):
        self.src = src
        self.tgt = tgt
        self.mats = {}
        for x, m in mats.items():
            if m.rows != tgt.dim(x) or m.cols != src.dim(x):
                raise ShapeMismatch(
                    f"morphism block at {x!r} has shape {m.shape}, "
                    f"expected {(tgt.dim(x), src.dim(x))}"
                )
            if m.rows and m.cols:
                self.mats[x] = m

    def vertex(self, x) -> Mat:
        if x in self.mats:
            return self.mats[x]
        return Mat.zeros(self.src.carrier.field, self.tgt.dim(x), self.src.dim(x))

    def __matmul__(self, other: "ModMorphism") -> "ModMorphism":
        if other.tgt is not self.src and other.tgt.dims != self.src.dims:
            raise ShapeMismatch("composing morphisms with mismatched middle module")
        mats = {}
        for x in set(self.mats) | set(other.mats):
            mats[x] = self.vertex(x) @ other.vertex(x)
        return ModMorphism(other.src, self.tgt, mats)

    def __add__(self, other: "ModMorphism") -> "ModMorphism":
        mats = {x: self.vertex(x) + other.vertex(x) for x in set(self.mats) | set(other.mats)}
        return ModMorphism(self.src, self.tgt, mats)

    def __sub__(self, other: "ModMorphism") -> "ModMorphism":
        mats = {x: self.vertex(x) - other.vertex(x) for x in set(self.mats) | set(other.mats)}
        return ModMorphism(self.src, self.tgt, mats)

    def scale(self, c) -> "ModMorphism":
        return ModMorphism(self.src, self.tgt, {x: m.scale(c) for x, m in self.mats.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_iso(self) -> bool:
        if self.src.dims != self.tgt.dims:
            return False
        return all(is_invertible(self.vertex(x)) for x in self.src.support)

    def __repr__(self):
        return f"ModMorphism({self.src!r} -> {self.tgt!r})"


def identity_morphism(M: FDModule) -> ModMorphism:
    field = M.carrier.field
    return ModMorphism(M, M, {x: Mat.identity(field, M.dim(x)) for x in M.support})


def zero_morphism(M: FDModule, N: FDModule) -> ModMorphism:
    return ModMorphism(M, N, {})


# ---------------------------------------------------------------------------
# construction of basic modules


def zero_module(carrier: Carrier) -> FDModule:
    return FDModule(carrier, {}, {})


def simple_at(carrier: Carrier, x) -> FDModule:
    """The simple at x, marked indecomposable: its total dimension is 1."""
    S = FDModule(carrier, {x: 1}, {})
    S._cache["indec"] = True
    return S


def projective_at(carrier: Carrier, x) -> FDModule:
    """The representable projective C(-, x), built once per carrier.

    It is marked indecomposable: End C(-, x) = C(x, x) is local on every
    carrier here.  A presentation's ideal is admissible; a cover's C(x, x)
    is the weight-0 paths of its base; an endomorphism category's objects
    are indecomposable classes; an opposite has its base's C(x, x)."""
    built = carrier.memo("projective")
    if x not in built:
        dims = {y: carrier.hom_dim(y, x) for y in carrier.projective_support(x)}
        mats = {g: carrier.left_mult_mat(g, x) for g, _, _ in _acting_generators(carrier, dims)}
        built[x] = FDModule(carrier, dims, mats)
        built[x]._cache["indec"] = True
    return built[x]


def injective_at(carrier: Carrier, x) -> FDModule:
    """The dual representable D C(x, -), the dual of the projective at x over
    the opposite; built once per carrier, and marked indecomposable like it
    (dual_module carries the mark)."""
    built = carrier.memo("injective")
    if x not in built:
        built[x] = dual_module(projective_at(carrier.opposite(), x))
    return built[x]


def projective_sum(carrier: Carrier, vertices: tuple) -> tuple:
    """(P, offsets): the direct sum of the projectives at the vertices, in
    order, as direct_sum gives it; built once per carrier and vertex tuple,
    so neither may be changed by a caller."""
    built = carrier.memo("projective_sum")
    if vertices not in built:
        built[vertices] = direct_sum([projective_at(carrier, x) for x in vertices])
    return built[vertices]


def _acting_generators(carrier: Carrier, dims: dict) -> list:
    """(g, src, tgt) for each generator with both ends where dims is nonzero:
    the only generators that act on a module of these dimensions."""
    out = []
    for s, d in dims.items():
        if d:
            for g in carrier.generators_at_source(s):
                t = carrier.gen_tgt(g)
                if dims.get(t, 0):
                    out.append((g, s, t))
    return out


def _square_generators(M: FDModule, N: FDModule) -> list:
    """(g, src, tgt) for each generator whose commuting square for maps
    M -> N can be nonzero, which needs M(tgt g) and N(src g) nonzero."""
    carrier = M.carrier
    out = []
    for y in M.support:
        for g in carrier.generators_at_target(y):
            x = carrier.gen_src(g)
            if N.dim(x):
                out.append((g, x, y))
    return out


def direct_sum(mods: list) -> tuple:
    """(S, offsets): the direct sum S, and for each summand k the offset
    offsets[k][x] at which it sits in S(x), for each x of its support."""
    if not mods:
        raise ShapeMismatch("direct_sum of an empty list needs a carrier")
    carrier = mods[0].carrier
    field = carrier.field
    dims = {}
    offsets = []
    for M in mods:
        off = {}
        for x in M.support:
            off[x] = dims.get(x, 0)
            dims[x] = dims.get(x, 0) + M.dim(x)
        offsets.append(off)
    blocks = {g: [] for g, _, _ in _acting_generators(carrier, dims)}
    for M, off in zip(mods, offsets):
        for g, m in M.gen_mats.items():
            blocks[g].append((off[carrier.gen_src(g)], off[carrier.gen_tgt(g)], m))
    mats = {
        g: Mat.from_blocks(field, dims[carrier.gen_src(g)], dims[carrier.gen_tgt(g)], placed)
        for g, placed in blocks.items()
    }
    return FDModule(carrier, dims, mats), offsets


# ---------------------------------------------------------------------------
# validation


def validate_module(M: FDModule) -> None:
    """Check that every relation starting in the support of M vanishes on M
    (a relation out of an object where M is zero acts as zero).

    Over an opposite carrier a reversed word acts on M as the transpose of
    the word on D M, so M is checked as D M over the base; a RelationViolated
    then names the relation's source vertex in the base's direction."""
    if isinstance(M.carrier, OppositeCarrier):
        validate_module(dual_module(M))
        return
    field = M.carrier.field
    for src in M.support:
        ds = M.dim(src)
        for index, tgt, terms in M.carrier.relations_at(src):
            dt = M.dim(tgt)
            if dt == 0:
                continue
            acc = Mat.zeros(field, ds, dt)
            for c, word in terms:
                acc = acc + M.evaluate_word(word, src, tgt).scale(c)
            if not acc.is_zero():
                raise RelationViolated(index, src)


# ---------------------------------------------------------------------------
# hom spaces


def hom_basis(M: FDModule, N: FDModule) -> list:
    """Basis of Hom(M, N) as a list of morphisms (commuting-square solve)."""
    if M.carrier is not N.carrier:
        raise ShapeMismatch("hom between modules over different carriers")
    key = ("hom", id(N))
    entry = M._cache.get(key)
    # the entry pins N alive, so a matching id guarantees the same module
    if entry is not None and entry[0] is N:
        return entry[1]
    carrier = M.carrier
    field = carrier.field
    var_objs = [x for x in M.support if N.dim(x)]
    offsets = {}
    nvars = 0
    for x in var_objs:
        offsets[x] = nvars
        nvars += M.dim(x) * N.dim(x)
    if nvars == 0:
        M._cache[key] = (N, [])
        return []
    squares = [(g, x, y) for g, x, y in _square_generators(M, N) if x in offsets or y in offsets]
    if squares:
        kern = kernel_basis(_commuting_squares(M, N, squares, offsets, nvars))
    else:
        kern = Mat.identity(field, nvars)
    basis = []
    # row j of kern's transpose is basis vector j, and Phi_x is its N(x)
    # rows of M(x) entries from offsets[x] on
    for vec in kern.transpose().ints:
        mats = {}
        for x in var_objs:
            o, mx = offsets[x], M.dim(x)
            rows = [vec[o + r * mx : o + (r + 1) * mx] for r in range(N.dim(x))]
            mats[x] = _canonical(field, rows, kern.den, mx)
        basis.append(ModMorphism(M, N, mats))
    M._cache[key] = (N, basis)
    return basis


def _commuting_squares(M: FDModule, N: FDModule, squares: list, offsets: dict, nvars: int) -> Mat:
    """The equations Phi_x M(g) = N(g) Phi_y of the squares (g, x, y), one
    block of N(x) M(y) rows per square, in the unknowns vec(Phi_x) (row-major,
    Phi_x at columns offsets[x] on).  Over Q each block is scaled by the
    product of the denominators of M(g) and N(g), so the rows are integers."""
    system = []
    for g, x, y in squares:
        nx, my = N.dim(x), M.dim(y)
        A, B = M.mat(g), N.mat(g)
        block = [[0] * nvars for _ in range(nx * my)]
        if x in offsets:
            # equation (i, j) of Phi_x M(g): sum over k of Phi_x[i, k] M(g)[k, j]
            mx, o, f = M.dim(x), offsets[x], B.den
            for k, arow in enumerate(A.ints):
                for j, v in enumerate(arow):
                    if v:
                        for i in range(nx):
                            block[i * my + j][o + i * mx + k] = v * f
        if y in offsets:
            # equation (i, j) of N(g) Phi_y: sum over l of N(g)[i, l] Phi_y[l, j]
            o, f = offsets[y], -A.den
            for i, brow in enumerate(B.ints):
                for l, v in enumerate(brow):
                    if v:
                        for j in range(my):
                            block[i * my + j][o + l * my + j] += v * f
        system += block
    return Mat(M.carrier.field, system, 1, nvars)


def hom_dim(M: FDModule, N: FDModule) -> int:
    return len(hom_basis(M, N))


def morphism_coords(basis: list, phi: ModMorphism) -> Mat | None:
    """Coordinates of phi in a hom basis (all over the same pair)."""
    if not basis:
        return None if not phi.is_zero() else Mat.zeros(phi.src.carrier.field, 0, 1)
    field = phi.src.carrier.field
    objs = [x for x in phi.src.support if phi.tgt.dim(x)]

    def flat(psi):
        if not objs:
            return Mat.zeros(field, 0, 1)
        return vstack([m.reshape(m.rows * m.cols, 1) for m in map(psi.vertex, objs)])

    B = hstack([flat(b) for b in basis])
    return solve_linear(B, flat(phi))


# ---------------------------------------------------------------------------
# kernels, images, cokernels, submodule machinery


def _submodule(M: FDModule, bases: dict) -> tuple:
    """(S, inclusion S -> M) for the subspaces of M spanned by the columns of
    each bases[x]; ShapeMismatch when the generators do not preserve them."""
    carrier = M.carrier
    dims = {x: b.cols for x, b in bases.items() if b.cols}
    mats = {}
    for g, s, t in _acting_generators(carrier, dims):
        sol = solve_linear(bases[s], M.mat(g) @ bases[t])
        if sol is None:
            raise ShapeMismatch("submodule is not arrow-stable")
        mats[g] = sol
    S = FDModule(carrier, dims, mats)
    return S, ModMorphism(S, M, {x: bases[x] for x in dims})


def kernel_module(phi: ModMorphism) -> tuple:
    """(K, inclusion K -> src)."""
    return _submodule(phi.src, {x: kernel_basis(phi.vertex(x)) for x in phi.src.support})


def _complement_columns(field, inside: Mat) -> list:
    """Indices of unit vectors completing the column space of `inside`."""
    n = inside.rows
    aug = hstack([inside, Mat.identity(field, n)])
    _, pivots = rref(aug)
    return [p - inside.cols for p in pivots if p >= inside.cols]


def cokernel_module(phi: ModMorphism) -> tuple:
    """(C, projection tgt -> C): C(x) is spanned by the unit vectors that
    complete the column space of phi at x, and the projection reads off
    their coordinates along that column space.

    One elimination of [phi_x | I] per object gives all three: its pivots
    left of the bar pick a basis `im` of the column space, those right of it
    the complement `comp`, and since the right block E has E [im | e_comp]
    = I, its rows below the rank are the projection."""
    N = phi.tgt
    carrier = N.carrier
    field = carrier.field
    proj = {}
    section = {}
    dims = {}
    for x in N.support:
        A = phi.vertex(x)
        red, pivots = rref(hstack([A, Mat.identity(field, N.dim(x))]))
        r = sum(1 for c in pivots if c < A.cols)
        comp = [c - A.cols for c in pivots[r:]]
        dims[x] = len(comp)
        if not comp:
            continue
        section[x] = Mat.identity(field, N.dim(x))[:, comp]
        proj[x] = red[r:, A.cols :]
    mats = {
        g: proj[s] @ N.mat(g) @ section[t] for g, s, t in _acting_generators(carrier, dims)
    }
    C = FDModule(carrier, dims, mats)
    pr = ModMorphism(N, C, proj)
    return C, pr


# ---------------------------------------------------------------------------
# radical, top, socle, covers, envelopes, duality


def _generator_images(M: FDModule, x) -> Mat:
    """The matrices M(g) of the generators g out of x, side by side (no
    columns when none acts): their column space is (rad M)(x)."""
    carrier = M.carrier
    blocks = [M.mat(g) for g in carrier.generators_at_source(x) if M.dim(carrier.gen_tgt(g))]
    return hstack(blocks) if blocks else Mat.zeros(carrier.field, M.dim(x), 0)


def _radical_bases(M: FDModule) -> dict:
    """A basis of (rad M)(x) for each object x of M's support: the span of
    the images of the generators out of x."""
    bases = {}
    for x in M.support:
        images = _generator_images(M, x)
        bases[x] = column_space_basis(images) if images.cols else images
    return bases


def radical_inclusion(M: FDModule) -> tuple:
    """(rad M, inclusion): spanned by the images of all generator actions."""
    return _submodule(M, _radical_bases(M))


def top_with_lifts(M: FDModule) -> tuple:
    """(top dims, lifts): unit-vector lifts of a basis of M/rad M per object,
    the unit vectors that complete the generator images at x, which span
    (rad M)(x), in one elimination per object."""
    field = M.carrier.field
    tops = {}
    lifts = {}
    for x in M.support:
        comp = _complement_columns(field, _generator_images(M, x))
        if comp:
            tops[x] = len(comp)
            lifts[x] = Mat.identity(field, M.dim(x))[:, comp]
    return tops, lifts


def socle_inclusion(M: FDModule) -> tuple:
    """(soc M, inclusion): joint kernel of all generator actions into each object."""
    carrier = M.carrier
    field = carrier.field
    bases = {}
    dims = {}
    for x in M.support:
        blocks = [
            M.mat(g)
            for g in carrier.generators_at_target(x)
            if M.dim(carrier.gen_src(g))
        ]
        if blocks:
            kb = kernel_basis(vstack(blocks))
        else:
            kb = Mat.identity(field, M.dim(x))
        if kb.cols:
            bases[x] = kb
            dims[x] = kb.cols
    # all generator actions vanish on the socle
    S = FDModule(carrier, dims, {})
    return S, ModMorphism(S, M, bases)


def dual_module(M: FDModule) -> FDModule:
    """The k-dual, a module over the opposite carrier; D is a duality, so
    it carries M's indecomposable mark."""
    mats = {g: m.transpose() for g, m in M.gen_mats.items()}
    DM = FDModule(M.carrier.opposite(), dict(M.dims), mats)
    if M._cache.get("indec"):
        DM._cache["indec"] = True
    return DM


class ProjCover:
    """A projective cover: the covering module, the epi, its summand list,
    and the offsets of the summands in the module (as direct_sum gives them;
    the module and offsets are projective_sum's, shared by every cover with
    the same summand list)."""

    __slots__ = ("module", "epi", "vertices", "offsets")

    def __init__(self, module, epi, vertices, offsets):
        self.module = module
        self.epi = epi
        self.vertices = vertices
        self.offsets = offsets


def projective_cover(M: FDModule) -> ProjCover:
    """Minimal projective cover, built from unit-vector lifts of the top;
    memoised on M."""
    cov = M._cache.get("projcover")
    if cov is None:
        cov = _build_projective_cover(M)
        M._cache["projcover"] = cov
    return cov


def _build_projective_cover(M: FDModule) -> ProjCover:
    carrier = M.carrier
    tops, lifts = top_with_lifts(M)
    summand_vertices = []
    lift_vectors = []
    for x in sorted(tops, key=carrier.object_index):
        for j in range(tops[x]):
            summand_vertices.append(x)
            lift_vectors.append(lifts[x][:, [j]])
    if not summand_vertices:
        Z = zero_module(carrier)
        return ProjCover(Z, ModMorphism(Z, M, {}), (), [])
    P, offsets = projective_sum(carrier, tuple(summand_vertices))
    # images[k][w]: the lift of summand k acted on by the generator word w,
    # M(w[0]) applied to the image of w[1:], so each suffix is evaluated once
    images = [{(): v} for v in lift_vectors]

    def image(k, word):
        found = images[k].get(word)
        if found is None:
            found = images[k][word] = M.mat(word[0]) @ image(k, word[1:])
        return found

    mats = {}
    for y in P.support:
        # column q of summand k: the action of the basis path q on the lift
        cols = [
            image(k, carrier.label_word(y, x, q))
            for k, x in enumerate(summand_vertices)
            if y in offsets[k]
            for q in carrier.hom_labels(y, x)
        ]
        if cols:
            mats[y] = hstack(cols)
    epi = ModMorphism(P, M, mats)
    for x in M.support:
        if rank(epi.vertex(x)) != M.dim(x):
            raise ShapeMismatch("projective cover failed to surject")
    return ProjCover(P, epi, tuple(summand_vertices), offsets)


# ---------------------------------------------------------------------------
# polynomial helpers (dense coefficient lists, lowest degree first)


def _poly_trim(field, a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.scalar(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = field.scalar(out[i + j] + x * y)
    return _poly_trim(field, out)


def _poly_divmod(field, a, b):
    a = list(a)
    q = [field.scalar(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv_scalar(b[-1])
    while len(a) >= len(b) and _poly_trim(field, list(a)):
        a = _poly_trim(field, a)
        if len(a) < len(b):
            break
        c = field.scalar(a[-1] * inv_lead)
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = field.scalar(a[k + i] - c * y)
        a = _poly_trim(field, a)
    return _poly_trim(field, q), _poly_trim(field, a)


def _poly_sub(field, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.scalar(0)
        y = b[i] if i < len(b) else field.scalar(0)
        out.append(field.scalar(x - y))
    return _poly_trim(field, out)


def _poly_gcd(field, a, b):
    """The monic gcd of a and b ([] when both are zero)."""
    r0, r1 = list(a), list(b)
    while r1:
        r0, r1 = r1, _poly_divmod(field, r0, r1)[1]
    if not r0:
        return []
    lead = field.inv_scalar(r0[-1])
    return [field.scalar(c * lead) for c in r0]


def _single_root(field, coeffs):
    """lambda when the monic coeffs (lowest degree first) are (x - lambda)^d,
    else None.  Needs d invertible: char 0, or d < p."""
    d = len(coeffs) - 1
    if d < 1 or coeffs[d] != 1 or (field.is_prime_field and d >= field.p):
        return None
    lam = field.scalar(field.neg_scalar(coeffs[d - 1]) * field.inv_scalar(d))
    # the coefficient of x^k in (x - lambda)^d is binom(d, k) (-lambda)^(d-k)
    term = field.scalar(1)
    for k in range(d, 0, -1):
        if coeffs[k] != term:
            return None
        term = field.scalar(term * field.neg_scalar(lam) * k * field.inv_scalar(d - k + 1))
    return lam if coeffs[0] == term else None


# Below this prime, roots are found by trying every field element.
_SCAN_PRIMES_BELOW = 64
# Trial division for the rational-root test gives up above this divisor.
_TRIAL_DIVISOR_LIMIT = 10**6


def _poly_value(field, coeffs, a):
    acc = field.scalar(0)
    for c in reversed(coeffs):
        acc = field.scalar(acc * a + c)
    return acc


def _powmod_p(p, base, e, mod):
    """base^e mod the monic polynomial mod over F_p, by square-and-multiply
    on plain int lists (lowest degree first)."""
    d = len(mod) - 1

    def mulmod(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] += u * v
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k] % p
            for i in range(d):
                prod[k - d + i] -= c * mod[i]
        return [c % p for c in prod[:d]]

    out = [1]
    while e:
        if e & 1:
            out = mulmod(out, base)
        e >>= 1
        if e:
            base = mulmod(base, base)
    return _poly_trim(None, out)


def _split_distinct_roots(field, g):
    """The roots of a monic g over F_p (p odd) that is a product of distinct
    linear factors, by equal-degree splitting with (x + a)^((p-1)/2) - 1 for
    a = 0, 1, ... in turn."""
    if len(g) <= 2:
        return [field.neg_scalar(g[0])] if len(g) == 2 else []
    half = (field.p - 1) // 2
    a = 0
    while True:
        h = _poly_sub(field, _powmod_p(field.p, [a, 1], half, g), [1])
        d = _poly_gcd(field, g, h)
        if 1 < len(d) < len(g):
            rest = _poly_divmod(field, g, d)[0]
            return _split_distinct_roots(field, d) + _split_distinct_roots(field, rest)
        a += 1


def _roots_mod_p(field, coeffs):
    """The distinct roots in F_p of a monic polynomial."""
    p = field.p
    if p < _SCAN_PRIMES_BELOW:
        return [a for a in range(p) if _poly_value(field, coeffs, a) == 0]
    x = [0, 1]
    # the roots of coeffs are those of gcd(coeffs, x^p - x)
    g = _poly_gcd(field, coeffs, _poly_sub(field, _powmod_p(p, x, p, coeffs), x))
    return _split_distinct_roots(field, g)


def _divisors(n: int):
    """The positive divisors of n >= 1, or None when trial division would
    pass _TRIAL_DIVISOR_LIMIT."""
    primes = []
    d = 2
    while d * d <= n:
        if d > _TRIAL_DIVISOR_LIMIT:
            return None
        while n % d == 0:
            primes.append(d)
            n //= d
        d += 1
    if n > 1:
        primes.append(n)
    divs = {1}
    for q in primes:
        divs |= {x * q for x in divs}
    return divs


def _rational_roots(coeffs):
    """The distinct rational roots of a monic polynomial, by the rational-root
    test on its integer form; None when a divisor search gives up."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    low = next(i for i, c in enumerate(ints) if c)
    roots = [Fraction(0)] if low else []
    ints = ints[low:]
    nums, dens = _divisors(abs(ints[0])), _divisors(ints[-1])
    if nums is None or dens is None:
        return None
    for a in nums:
        for b in dens:
            if gcd(a, b) != 1:
                continue
            for num in (a, -a):
                # b^n f(num / b), in integers
                acc, bpow = ints[-1], b
                for c in reversed(ints[:-1]):
                    acc = acc * num + c * bpow
                    bpow *= b
                if acc == 0:
                    roots.append(Fraction(num, b))
    return roots


def _linear_factor(field, r):
    """x - r as sympy writes it: b x - a for r = a/b over Q, in integers."""
    den = 1 if field.is_prime_field else r.denominator
    return [field.scalar(field.neg_scalar(r) * den), field.scalar(den)]


def _split_linear(field, coeffs):
    """sympy's factor_list of a monic polynomial that is a product of linear
    factors, or None when it has an irreducible factor of degree >= 2."""
    roots = _roots_mod_p(field, coeffs) if field.is_prime_field else _rational_roots(coeffs)
    if roots is None:
        return None
    rest, out = list(coeffs), []
    for r in roots:
        mult = 0
        while len(rest) > 1:
            quot, rem = _poly_divmod(field, rest, [field.neg_scalar(r), field.scalar(1)])
            if rem:
                break
            rest, mult = quot, mult + 1
        out.append((_linear_factor(field, r), mult))
    if len(rest) > 1:
        return None
    # sympy's order: by multiplicity, then by coefficients, leading first
    return sorted(out, key=lambda fm: (fm[1], fm[0][::-1]))


def _factor_poly(field, coeffs):
    """Factor a monic polynomial into (factor, multiplicity) pairs: a power
    of one linear factor directly, a product of linear factors by root
    finding, anything else via sympy.  Each gives sympy's factor_list, in
    its forms and order."""
    lam = _single_root(field, coeffs)
    if lam is not None:
        return [(_linear_factor(field, lam), len(coeffs) - 1)]
    split = _split_linear(field, coeffs)
    if split is not None:
        return split
    import sympy

    x = sympy.Symbol("x")
    if field.is_prime_field:
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], x, modulus=field.p)
    else:
        poly = sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
            x,
            domain="QQ",
        )
    _, factors = poly.factor_list()
    out = []
    for f, mult in factors:
        cs = f.all_coeffs()
        low_first = [
            field.scalar(c if field.is_prime_field else Fraction(int(c.p), int(c.q)))
            for c in reversed(cs)
        ]
        out.append((low_first, int(mult)))
    return out


def _coprime_pair(field, factors):
    """(A, B): the first primary factor g^e of a factorisation, and the
    product of the others."""
    powers = []
    for g, e in factors:
        power = [field.scalar(1)]
        for _ in range(e):
            power = _poly_mul(field, power, g)
        powers.append(power)
    B = powers[1]
    for power in powers[2:]:
        B = _poly_mul(field, B, power)
    return powers[0], B


def _min_poly(field, one, step, flat):
    """The minimal polynomial (monic, lowest degree first) of an element x of
    a finite-dimensional algebra, by Krylov iteration: one is the unit,
    step(y) is y x and flat(y) is y as a column.  Returns it with K, the
    columns flat(x^0), ..., flat(x^(d-1)) for d its degree, so that a
    polynomial q of degree below d has flat(q(x)) = K @ q (_krylov_eval)."""
    power = one
    vecs = [flat(one)]
    while True:
        power = step(power)
        v = flat(power)
        K = hstack(vecs)
        sol = solve_linear(K, v)
        if sol is not None:
            return [field.neg_scalar(c) for c in sol.entries()] + [field.scalar(1)], K
        vecs.append(v)


def _krylov_eval(field, K: Mat, poly) -> Mat:
    """flat(q(x)) for the coefficients poly of q, from the K of _min_poly."""
    return K @ Mat.from_rows(field, [[c] for c in poly] + [[0]] * (K.cols - len(poly)), 1)


# ---------------------------------------------------------------------------
# endomorphism algebra, decomposition, isomorphism


class _EndAlgebra:
    """End(M) on per-vertex blocks: an element is a morphism M -> M, and its
    coordinates are the entries of its blocks M(x) -> M(x), row by row and
    object by object, so an element has sum dim M(x)^2 of them and no total
    matrix of M is built."""

    def __init__(self, M: FDModule):
        self.M = M
        self.field = M.carrier.field
        self.objs = list(M.support)
        self.basis = hom_basis(M, M)
        self.dim = len(self.basis)
        # End(M) of dimension 1 is the scalars: M is indecomposable, and
        # decompose reads nothing more
        if self.dim > 1:
            self.one = identity_morphism(M)
            self._vec_basis = hstack([self.flat(b) for b in self.basis])

    def flat(self, phi: ModMorphism) -> Mat:
        """phi's coordinates, as a column."""
        return vstack([phi.vertex(x).reshape(self.M.dim(x) ** 2, 1) for x in self.objs])

    def element(self, column: Mat) -> ModMorphism:
        """The element with these coordinates."""
        mats = {}
        o = 0
        for x in self.objs:
            d = self.M.dim(x)
            mats[x] = column[o : o + d * d, :].reshape(d, d)
            o += d * d
        return ModMorphism(self.M, self.M, mats)

    def combination(self, coords: Mat) -> ModMorphism:
        """The combination of the basis with these coordinates."""
        return self.element(self._vec_basis @ coords)

    def gram(self) -> Mat:
        """The trace form: tr(b_i b_j) for the basis, summed over the blocks."""
        g = [[0] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(i, self.dim):
                prod = self.basis[i] @ self.basis[j]
                tr = self.field.scalar(
                    sum(m[k, k] for m in prod.mats.values() for k in range(m.rows))
                )
                g[i][j] = tr
                g[j][i] = tr
        return Mat.from_rows(self.field, g, self.dim)


def _primary_split(M: FDModule, T: ModMorphism, end: _EndAlgebra) -> tuple:
    """(split, factors): factors is the factorisation of T's minimal
    polynomial, and split is (K1, K2), M split along a generalized
    eigenspace decomposition of T, or None when that has one part."""
    field = end.field
    minp, K = _min_poly(field, end.one, lambda P: P @ T, end.flat)
    factors = _factor_poly(field, minp)
    if len(factors) < 2:
        return None, factors
    A, B = _coprime_pair(field, factors)
    K1, _ = kernel_module(end.element(_krylov_eval(field, K, A)))
    K2, _ = kernel_module(end.element(_krylov_eval(field, K, B)))
    if K1.total_dim == 0 or K2.total_dim == 0:
        return None, factors
    if K1.total_dim + K2.total_dim != M.total_dim:
        raise DecompositionInconclusive("primary decomposition dimensions do not add up")
    return (K1, K2), factors


def _top_dim(end: _EndAlgebra) -> int:
    """dim End(M)/rad End(M): the rank of the trace form, whose kernel is
    the radical when the characteristic is 0 or above dim M."""
    return end.dim - kernel_basis(end.gram()).cols


# Random endomorphisms tried, after the basis, before decompose gives up.
_TRIALS = 40


def decompose(M: FDModule) -> list:
    """Indecomposable summands with multiplicities, certified by explicit isos.

    Returns a list of (indecomposable FDModule, multiplicity).  A
    DecompositionInconclusive is kept on M like a result, and raised again
    on every later call.

    A module marked indecomposable is returned whole, with no End(M) built.
    The mark is set only where theory or a certificate gives it: by
    simple_at, projective_at and injective_at, on the pieces of a certified
    decomposition, and carried by dual_module and by homology.transpose;
    never on a kernel, cokernel, syzygy or radical.
    """
    if M.total_dim == 0:
        return []
    if M._cache.get("indec"):
        return [(M, 1)]
    found = M._cache.get("decompose")
    if isinstance(found, DecompositionInconclusive):
        raise found.with_traceback(None)
    if found is not None:
        return found
    try:
        pieces = _decompose_rec(M, random.Random(M.carrier.seed))
    except DecompositionInconclusive as exc:
        M._cache["decompose"] = exc
        raise
    groups: list = []
    for piece in pieces:
        for entry in groups:
            if find_iso(entry[0], piece) is not None:
                entry[1] += 1
                break
        else:
            groups.append([piece, 1])
    result = [(m, mult) for m, mult in groups]
    M._cache["decompose"] = result
    return result


def _decompose_rec(M: FDModule, rng) -> list:
    if M.total_dim == 0:
        return []
    end = _EndAlgebra(M)
    split = _find_split(M, end, rng) if end.dim > 1 else None
    if split is None:
        M._cache["indec"] = True
        return [M]
    return _decompose_rec(split[0], rng) + _decompose_rec(split[1], rng)


def _find_split(M: FDModule, end: _EndAlgebra, rng):
    """(K1, K2), M split along the primary decomposition of the first
    endomorphism whose minimal polynomial has two coprime factors: a basis
    of End(M), then up to _TRIALS random combinations of it; or None once M
    is certified indecomposable.

    No idempotent is needed: rad End(M) is nilpotent, so a lift T of s in
    End(M)/rad has the irreducible factors of s, and T splits M whenever an
    idempotent of k[s] would.  When the trace form gives rad End(M)
    (characteristic 0 or above dim M), M is indecomposable once End(M)/rad
    is a field: of dimension 1, or k[T] for a T whose minimal polynomial is
    g^e with g irreducible of degree dim End(M)/rad.  Raises
    DecompositionInconclusive when neither outcome is found."""
    for T in end.basis:
        split, _ = _primary_split(M, T, end)
        if split is not None:
            return split
    field = end.field
    certifiable = not (field.is_prime_field and field.p <= M.total_dim)
    top = _top_dim(end) if certifiable else None
    if top == 1:
        return None
    for _ in range(_TRIALS):
        T = end.combination(Mat.from_rows(field, [[field.random_scalar(rng)] for _ in end.basis]))
        split, factors = _primary_split(M, T, end)
        if split is not None:
            return split
        if certifiable and len(factors) == 1 and len(factors[0][0]) - 1 == top:
            return None
    if not certifiable:
        raise DecompositionInconclusive(
            f"characteristic {field.p} too small for the trace-form radical "
            f"(total dimension {M.total_dim})"
        )
    raise DecompositionInconclusive(
        "no split found and locality not certified within the trial cap"
    )


def is_indecomposable(M: FDModule) -> bool:
    if M.total_dim == 0:
        return False
    if "indec" in M._cache:
        return M._cache["indec"]
    parts = decompose(M)
    out = len(parts) == 1 and parts[0][1] == 1
    M._cache["indec"] = out
    return out


def is_isomorphic(M: FDModule, N: FDModule) -> bool:
    """Exact isomorphism test: an iso in a basis of Hom(M, N) (find_iso),
    then, when neither module is known indecomposable, the summands of the
    two decompositions matched one by one with find_iso."""
    if M.carrier is not N.carrier or M.dims != N.dims:
        return False
    if M is N or find_iso(M, N) is not None:
        return True
    if M._cache.get("indec") or N._cache.get("indec"):
        return False
    dm = decompose(M)
    remaining = list(decompose(N))
    for piece, mult in dm:
        entry = next((e for e in remaining if find_iso(piece, e[0]) is not None), None)
        if entry is None or entry[1] != mult:
            return False
        remaining.remove(entry)
    return not remaining


def find_iso(M: FDModule, N: FDModule) -> ModMorphism | None:
    """The first map of a basis of Hom(M, N) that is an isomorphism, or None.

    Exact when M or N is indecomposable: if then M ≅ N, End(N) is local, so
    the maps M -> N that are not isos (rad End(N) composed with one iso)
    form a proper subspace of Hom(M, N), and some basis map lies outside it.
    For two decomposable modules None does not rule out M ≅ N;
    is_isomorphic decides that case.
    """
    if M.dims != N.dims:
        return None
    if M.total_dim == 0:
        return zero_morphism(M, N)
    return next((phi for phi in hom_basis(M, N) if phi.is_iso()), None)


def twist_candidates(group, src_support, dst_support) -> list:
    """The sorted twists a moving some (v, g) of src_support onto some
    (v, h) of dst_support, that is a = h - g at a common base vertex.

    A twist a of a module with support src_support can only meet
    dst_support for these a, so they bound every search over twists."""
    return sorted(
        {group.sub(h, g) for (v, g) in src_support for (w, h) in dst_support if v == w}
    )
