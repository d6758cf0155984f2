"""The endomorphism category of a subcategory, as a carrier.

Objects are the subcategory's generators; hom spaces are their computed hom
bases with the identity arranged as the first basis vector of each
endomorphism space; composition is expanded through exact linear solves.
Modules over this carrier are exactly finitely presented functors on the
subcategory, so the whole resolution/Ext machinery applies to mod-U
unchanged.  For a subcategory of a covering carrier the objects are
keys (i, a), generator i twisted by a; `objects` lists the untwisted ones,
one per orbit, and everything else is computed on demand for any key.
"""

from __future__ import annotations

from .carrier import Carrier
from .covering import twist_module
from .errors import ShapeMismatch
from .field import hstack
from .modules import (
    _acting_generators,
    _complement_columns,
    FDModule,
    ModMorphism,
    hom_basis,
    identity_morphism,
    morphism_coords,
    twist_candidates,
    validate_module,
)


class EndoCarrier(Carrier):
    """The k-category presented by the hom bases of a subcategory's objects,
    given as a list of its classes."""

    def __init__(self, U: list):
        if not U:
            raise ShapeMismatch("endomorphism category needs at least one object")
        self.modules = list(U)
        carrier = U[0].carrier
        self.field = carrier.field
        self.seed = carrier.seed
        self.twisted = carrier.is_cover
        if self.twisted:
            e = carrier.group.identity()
            self._objects = tuple((i, e) for i in range(len(self.modules)))
        else:
            self._objects = tuple(range(len(self.modules)))

    def module(self, x) -> FDModule:
        """The module of object x (generator x[0] twisted by x[1] on a cover)."""
        return twist_module(self.modules[x[0]], x[1]) if self.twisted else self.modules[x]

    def candidates(self, X: FDModule) -> tuple:
        """The objects whose support meets that of X, in object order: the
        only ones with a nonzero map into or out of X."""
        if not self.twisted:
            return self._objects
        group = X.carrier.group
        return tuple(
            (i, a)
            for i, M in enumerate(self.modules)
            for a in twist_candidates(group, M.support, X.support)
        )

    def basis(self, x, y) -> list:
        """The hom basis of C(x, y), identity first on an endomorphism space."""
        table = self.memo("basis")
        if (x, y) not in table:
            basis = hom_basis(self.module(x), self.module(y))
            table[(x, y)] = self._identity_first(self.module(x), basis) if x == y else basis
        return table[(x, y)]

    def _identity_first(self, M: FDModule, basis: list) -> list:
        ident = identity_morphism(M)
        coords = morphism_coords(basis, ident)
        if coords is None:
            raise ShapeMismatch("identity not in its own endomorphism space")
        # keep the identity first, then a complement chosen from the basis
        return [ident] + [basis[k] for k in _complement_columns(self.field, coords)]

    # -- Carrier interface ----------------------------------------------------

    @property
    def objects(self) -> tuple:
        return self._objects

    def object_index(self, x):
        """Objects sort as their keys: by index, then (over a covering) by twist."""
        return x

    def hom_labels(self, x, y) -> tuple:
        return tuple((x, y, k) for k in range(len(self.basis(x, y))))

    def basis_morphism(self, label) -> ModMorphism:
        x, y, k = label
        return self.basis(x, y)[k]

    def compose_labels(self, x, y, z, f, g):
        table = self.memo("compose")
        key = (f, g)
        if key in table:
            return table[key]
        comp = self.basis_morphism(g) @ self.basis_morphism(f)
        coords = morphism_coords(self.basis(x, z), comp)
        if coords is None:
            raise ShapeMismatch("composition left the hom space")
        table[key] = {
            (x, z, k): c for k, c in enumerate(coords.entries()) if c != 0
        }
        return table[key]

    def gen_src(self, g):
        return g[0]

    def gen_tgt(self, g):
        return g[1]

    def gen_label(self, g):
        return g

    def label_word(self, x, y, label) -> tuple:
        if label[0] == label[1] and label[2] == 0:
            return ()
        return (label,)

    def _around(self, x) -> tuple:
        """(projective support, injective support, generators into x,
        generators out of x) of an object; a generator is a non-identity
        basis element."""
        table = self.memo("around")
        if x not in table:
            near = self.candidates(self.module(x))
            into = tuple(y for y in near if self.hom_dim(y, x))
            out = tuple(y for y in near if self.hom_dim(x, y))
            table[x] = (
                into,
                out,
                tuple(g for y in into for g in self.hom_labels(y, x) if g != (x, x, 0)),
                tuple(g for y in out for g in self.hom_labels(x, y) if g != (x, x, 0)),
            )
        return table[x]

    def projective_support(self, x) -> tuple:
        return self._around(x)[0]

    def injective_support(self, x) -> tuple:
        return self._around(x)[1]

    def generators_at_target(self, x) -> tuple:
        return self._around(x)[2]

    def generators_at_source(self, x) -> tuple:
        return self._around(x)[3]

    def relations_at(self, x) -> tuple:
        """The composition table at x: every composable generator pair (f, g)
        from x must expand into the chosen basis."""
        return tuple(
            ((f, g), g[1], self._composition_terms(f, g))
            for f in self.generators_at_source(x)
            for g in self.generators_at_source(f[1])
        )

    def _composition_terms(self, f, g) -> list:
        """f.g minus its expansion in the chosen basis of C(src f, tgt g)."""
        table = self.memo("relations")
        if (f, g) not in table:
            x, z = f[0], g[1]
            terms = [(self.field.scalar(1), (f, g))]
            for lab, c in self.compose_labels(x, f[1], z, f, g).items():
                terms.append((self.field.neg_scalar(c), self.label_word(x, z, lab)))
            table[(f, g)] = terms
        return table[(f, g)]

    def describe(self) -> str:
        dims = [m.total_dim for m in self.modules]
        count = "twist orbits" if self.twisted else "objects"
        return f"endo({len(self.modules)} {count}, module dims {dims})"


def phi_module(E: EndoCarrier, X: FDModule) -> FDModule:
    """The functor Hom(-, X) restricted to the subcategory, as an E-module."""
    bases = {y: hom_basis(E.module(y), X) for y in E.candidates(X)}
    dims = {y: len(basis) for y, basis in bases.items()}
    mats = {}
    for g, i, j in _acting_generators(E, dims):
        f = E.basis_morphism(g)
        cols = []
        for h in bases[j]:
            coords = morphism_coords(bases[i], h @ f)
            if coords is None:
                raise ShapeMismatch("precomposition left the hom space")
            cols.append(coords)
        mats[g] = hstack(cols)
    Phi = FDModule(E, dims, mats)
    validate_module(Phi)  # functoriality against the composition table
    return Phi
