"""The covering category attached to a graded presentation.

The covering category C has objects (v, g) for base vertices v and group
elements g, and C((v,g),(w,h)) is the weight-(h-g) component of the base path
space from v to w (the smash-product description).  A CoverCarrier computes
hom spaces, generator ends, incidence, path words and relation lifts from
base data for any object, so it lists neither objects nor generators: the
covering is locally bounded, and its indecomposables are knitted one twist
orbit at a time.
"""

from __future__ import annotations

from .carrier import Carrier, kept
from .presentation import GradedQuiverPresentation


class CoverCarrier(Carrier):
    """The covering category of a graded presentation, with the grading
    group acting freely by shifts."""

    def __init__(self, pres: GradedQuiverPresentation):
        self.base_presentation = pres
        self.group = pres.group
        self.field = pres.field
        self._vertex_position = {v: i for i, v in enumerate(pres.vertices)}

    def _lift_path(self, path, g) -> tuple:
        """The generator word lifting a base path that starts at shift g."""
        word = []
        for name in path:
            word.append((name, g))
            g = self.group.op(g, self.base_presentation.arrow(name).weight)
        return tuple(word)

    def _ends(self, gen) -> tuple:
        """(source, target) of a generator, lifted from its base arrow."""
        def build():
            name, g = gen
            a = self.base_presentation.arrow(name)
            return (a.src, g), (a.tgt, self.group.op(g, a.weight))
        return kept(self.memo("ends"), gen, build)

    # -- Carrier interface ------------------------------------------------------

    def object_index(self, x):
        """Sort key (shift, vertex position) of any object."""
        return (x[1], self._vertex_position[x[0]])

    def has_object(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == 2
            and x[0] in self._vertex_position
            and self.in_box(x[1])
        )

    def hom_labels(self, x, y) -> tuple:
        def build():
            want = self.group.sub(y[1], x[1])
            pres = self.base_presentation
            return tuple(p for p in pres.path_basis(x[0], y[0]) if pres._path_weights[p] == want)
        return kept(self.memo("hom_labels"), (x, y), build)

    def compose_labels(self, x, y, z, f, g):
        return self.base_presentation.compose_labels(x[0], y[0], z[0], f, g)

    def has_generator(self, gen) -> bool:
        return (
            isinstance(gen, tuple)
            and len(gen) == 2
            and gen[0] in self.base_presentation.generators
            and self.in_box(gen[1])
        )

    def gen_src(self, gen):
        return self._ends(gen)[0]

    def gen_tgt(self, gen):
        return self._ends(gen)[1]

    def gen_label(self, gen):
        return (gen[0],)

    def generators_at_source(self, x) -> tuple:
        """The lifts at x of the base arrows leaving its vertex, in arrow order."""
        def build():
            v, g = x
            return tuple((a.name, g) for a in self.base_presentation.arrows if a.src == v)
        return kept(self.memo("at_source"), x, build)

    def generators_at_target(self, x) -> tuple:
        """The lifts ending at x, ordered by source shift, then by arrow."""
        def build():
            w, h = x
            lifts = sorted(
                (self.group.sub(h, a.weight), i, a.name)
                for i, a in enumerate(self.base_presentation.arrows)
                if a.tgt == w
            )
            return tuple((name, g) for g, _, name in lifts)
        return kept(self.memo("at_target"), x, build)

    def label_word(self, x, y, label) -> tuple:
        return kept(self.memo("words"), (label, x[1]), lambda: self._lift_path(label, x[1]))

    def relations_at(self, x) -> tuple:
        """The base relations at x's vertex, lifted whole to start at x."""
        def build():
            v, g = x
            pres = self.base_presentation
            return tuple(
                (
                    index,
                    (w, self.group.op(g, pres.path_weight(terms[0][1]))),
                    [(c, self._lift_path(path, g)) for c, path in terms],
                )
                for index, w, terms in pres.relations_at(v)
            )
        return kept(self.memo("relations_at"), x, build)

    def describe(self) -> str:
        return f"cover({self.base_presentation.describe()}, group {self.group.describe()})"

    # -- covering structure -------------------------------------------------------

    @property
    def is_cover(self) -> bool:
        return True

    def fundamental_domain(self) -> tuple:
        e = self.group.identity()
        return tuple((v, e) for v in self.base_presentation.vertices)

    def in_box(self, g) -> bool:
        """Is g an element of the grading group, so a shift of the cover?
        (Benchmark tracing wraps this method by name.)"""
        if self.group.kind == "cyclic":
            return type(g) is int and 0 <= g < self.group.order
        return (
            isinstance(g, tuple)
            and len(g) == self.group.rank
            and all(type(c) is int for c in g)
        )

    def twist_object(self, a, x):
        v, g = x
        return (v, self.group.op(a, g))

    def twist_generator(self, a, gen):
        name, g = gen
        return (name, self.group.op(a, g))

    # supports of representable functors, from base data (exact, global)

    def projective_support(self, x) -> tuple:
        """Objects where C(-, x) is nonzero."""
        v, g = x
        pres = self.base_presentation
        out = set()
        for w in pres.vertices:
            for p in pres.path_basis(w, v):
                out.add((w, self.group.sub(g, pres._path_weights[p])))
        return tuple(sorted(out))

    def injective_support(self, x) -> tuple:
        v, g = x
        pres = self.base_presentation
        out = set()
        for w in pres.vertices:
            for p in pres.path_basis(v, w):
                out.add((w, self.group.op(g, pres._path_weights[p])))
        return tuple(sorted(out))


def smash_cover(pres: GradedQuiverPresentation) -> CoverCarrier:
    """The covering category of a presentation.

    One carrier per presentation: every caller shares it, and with it the
    representables and indecomposable pools kept on it."""
    return kept(pres.memo("carrier"), "cover", lambda: CoverCarrier(pres))

