"""Reference: the window endomorphism category that the window-free one
replaced.

`window_endo(U, box)` lists every twist of U's generators whose support
lies in a window box of shifts and presents their endomorphism category
eagerly, with a hom basis for every ordered pair of them.  The box truncates
mod-U at its border, so only the centred generators form its fundamental
domain.  Tests check the window-free upstairs category of ModPushdown
against it.
"""

from quivercover.carrier import Carrier, OppositeCarrier
from quivercover.covering import add_class, twist_module
from quivercover.errors import ShapeMismatch
from quivercover.field import Mat, hstack, rref
from quivercover.modules import hom_basis, identity_morphism, is_isomorphic, morphism_coords
from window_knit import in_box


class WindowEndoCarrier(Carrier):
    """A finite k-category presented by hom bases of a module collection."""

    def __init__(self, modules: list, fundamental: list):
        self.modules = list(modules)
        self.field = modules[0].carrier.field
        self._fundamental = tuple(fundamental)
        n = len(self.modules)
        self._objects = tuple(range(n))
        self._bases = {}
        for i, Mi in enumerate(self.modules):
            for j, Mj in enumerate(self.modules):
                basis = hom_basis(Mi, Mj)
                if i == j:
                    basis = self._identity_first(Mi, basis)
                self._bases[(i, j)] = basis
        self._generators = tuple(
            (i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(len(self._bases[(i, j)]))
            if not (i == j and k == 0)
        )
        self._compose_cache = {}
        self._op = None

    def _identity_first(self, M, basis: list) -> list:
        coords = morphism_coords(basis, identity_morphism(M))
        cols = [coords] + [
            Mat.from_rows(self.field, [[1 if t == k else 0] for t in range(len(basis))])
            for k in range(len(basis))
        ]
        _, pivots = rref(hstack(cols))
        chosen = [identity_morphism(M)] + [basis[p - 1] for p in pivots if p != 0]
        if len(chosen) != len(basis):
            raise ShapeMismatch("failed to rebase the endomorphism space")
        return chosen

    @property
    def objects(self) -> tuple:
        return self._objects

    def hom_labels(self, x, y) -> tuple:
        return tuple((x, y, k) for k in range(len(self._bases[(x, y)])))

    def compose_labels(self, x, y, z, f, g):
        key = (f, g)
        if key not in self._compose_cache:
            comp = self._bases[g[:2]][g[2]] @ self._bases[f[:2]][f[2]]
            coords = morphism_coords(self._bases[(x, z)], comp)
            self._compose_cache[key] = {
                (x, z, k): coords.a[k, 0] for k in range(coords.rows) if coords.a[k, 0] != 0
            }
        return self._compose_cache[key]

    def identity_combo(self, x):
        return {(x, x, 0): self.field.scalar(1)}

    @property
    def generators(self) -> tuple:
        return self._generators

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

    def opposite(self) -> Carrier:
        if self._op is None:
            self._op = OppositeCarrier(self)
        return self._op

    def fundamental_domain(self) -> tuple:
        return self._fundamental


def window_endo(U, box) -> tuple:
    """(keys, carrier): the twists of U's generators inside the box with
    their keys (generator index, twist), and their endomorphism category."""
    keys, objs = [], []
    for i, gen in enumerate(U.generators):
        for a in box:
            T = twist_module(gen, a)
            if in_box(box, T.support) and add_class(objs, T, twisted=False):
                keys.append((i, a))
    fundamental = [
        next(k for k, obj in enumerate(objs) if is_isomorphic(gen, obj)) for gen in U.generators
    ]
    return keys, WindowEndoCarrier(objs, fundamental)
