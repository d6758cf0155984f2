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

from .carrier import Carrier
from .presentation import GradedQuiverPresentation


class CoverCarrier(Carrier):
    """The covering category of a graded presentation, with the grading
    group acting freely by shifts."""

    def __init__(self, pres: GradedQuiverPresentation):
        self.base_presentation = pres
        self.group = pres.group
        self.field = pres.field
        self.seed = pres.seed
        self._vertex_position = {v: i for i, v in enumerate(pres.vertices)}
        # on-demand tables: generator ends, incidence, path words, relations
        self._gen_src = {}
        self._gen_tgt = {}
        self._at_source = {}
        self._at_target = {}
        self._words = {}
        self._relations_at = {}

    def _lift_path(self, path, g) -> tuple:
        """The generator word lifting a base path that starts at shift g."""
        word = []
        for name in path:
            word.append((name, g))
            g = self.group.op(g, self.base_presentation.arrow(name).weight)
        return tuple(word)

    def _lift_generator(self, gen) -> tuple:
        name, g = gen
        a = self.base_presentation.arrow(name)
        ends = (a.src, g), (a.tgt, self.group.op(g, a.weight))
        self._gen_src[gen], self._gen_tgt[gen] = ends
        return ends

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
        cache = getattr(self, "_hom_cache", None)
        if cache is None:
            cache = {}
            self._hom_cache = cache
        key = (x, y)
        if key not in cache:
            v, g = x
            w, h = y
            want = self.group.sub(h, g)
            pres = self.base_presentation
            cache[key] = tuple(
                p for p in pres.path_basis(v, w) if pres._path_weights[p] == want
            )
        return cache[key]

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
        try:
            return self._gen_src[gen]
        except KeyError:
            return self._lift_generator(gen)[0]

    def gen_tgt(self, gen):
        try:
            return self._gen_tgt[gen]
        except KeyError:
            return self._lift_generator(gen)[1]

    def gen_label(self, gen):
        return (gen[0],)

    def generators_at_source(self, x) -> tuple:
        """The lifts at x of the base arrows leaving its vertex, in arrow order."""
        gens = self._at_source.get(x)
        if gens is None:
            v, g = x
            gens = tuple((a.name, g) for a in self.base_presentation.arrows if a.src == v)
            self._at_source[x] = gens
        return gens

    def generators_at_target(self, x) -> tuple:
        """The lifts ending at x, ordered by source shift, then by arrow."""
        gens = self._at_target.get(x)
        if gens is None:
            w, h = x
            lifts = sorted(
                (self.group.sub(h, a.weight), i, a.name)
                for i, a in enumerate(self.base_presentation.arrows)
                if a.tgt == w
            )
            gens = tuple((name, g) for g, _, name in lifts)
            self._at_target[x] = gens
        return gens

    def label_word(self, x, y, label) -> tuple:
        key = (label, x[1])
        word = self._words.get(key)
        if word is None:
            word = self._words[key] = self._lift_path(label, x[1])
        return word

    def relations_at(self, x) -> tuple:
        """The base relations at x's vertex, lifted whole to start at x."""
        rels = self._relations_at.get(x)
        if rels is None:
            v, g = x
            pres = self.base_presentation
            rels = tuple(
                (
                    index,
                    (w, self.group.op(g, pres.path_weight(terms[0][1]))),
                    [(c, self._lift_path(path, g)) for c, path in terms],
                )
                for index, w, terms in pres.relations_at(v)
            )
            self._relations_at[x] = rels
        return rels

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
    representables and indecomposable pools memoised on it."""
    memo = pres.memo("cover")
    if "cover" not in memo:
        memo["cover"] = CoverCarrier(pres)
    return memo["cover"]

