"""The covering category attached to a graded presentation.

The covering category C has objects (v, g) for base vertices v and group
elements g, and C((v,g),(w,h)) is the weight-(h-g) component of the base path
space from v to w (the smash-product description).  A CoverCarrier computes
hom spaces, generator ends, incidence, path words and relation lifts from
base data for any object, so no module operation needs a box: the covering
is locally bounded, and its indecomposables are knitted one twist orbit at a
time.  The window box bounds only the rest: `objects` and `generators` list
the box (pull-up, module literals), and `in_window` says whether a support
lies in it (the window counts of Corres and Main2).
"""

from __future__ import annotations

from .carrier import Carrier
from .errors import ShapeMismatch, WindowTooSmall
from .groups import Window
from .presentation import GradedQuiverPresentation


class CoverCarrier(Carrier):
    """The covering category, with a finite window of shifts to enumerate."""

    def __init__(self, pres: GradedQuiverPresentation, window: Window):
        if window.group != pres.group:
            raise ShapeMismatch("window group does not match the presentation group")
        self.base_presentation = pres
        self.window = window
        self.group = pres.group
        self.field = pres.field
        shifts = window.sorted_elements()
        inside = window.element_set
        self._objects = tuple((v, g) for g in shifts for v in pres.vertices)
        self._generators = tuple(
            (a.name, g)
            for g in shifts
            for a in pres.arrows
            if self.group.op(g, a.weight) in inside
        )
        self._vertex_position = {v: i for i, v in enumerate(pres.vertices)}
        # on-demand tables: generator ends, incidence, path words, relations
        self._gen_src = {}
        self._gen_tgt = {}
        self._at_source = {}
        self._at_target = {}
        self._words = {}
        self._relations_at = {}
        self._op = None

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

    @property
    def objects(self) -> tuple:
        """The objects of the window box, shift by shift."""
        return self._objects

    def object_index(self, x):
        """Sort key (shift, vertex position) of any object; on the box it
        orders as `objects` does."""
        return (x[1], self._vertex_position[x[0]])

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

    def identity_combo(self, x):
        return {(): self.field.scalar(1)}

    @property
    def generators(self) -> tuple:
        """The generators with both ends in the window box."""
        return self._generators

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

    def opposite(self) -> "CoverCarrier":
        if self._op is None:
            op = CoverCarrier(self.base_presentation.opposite(), self.window)
            op._op = self
            self._op = op
        return self._op

    def opposite_generator_key(self, gen):
        # the reversed lift starts at the original target shift
        name, g = gen
        return (name, self.group.op(g, self.base_presentation.arrow(name).weight))

    def opposite_combo(self, x, y, combo: dict) -> dict:
        # labels are base paths; translate through the base presentation
        return self.base_presentation.opposite_combo(x[0], y[0], combo)

    def describe(self) -> str:
        return (
            f"cover({self.base_presentation.describe()}, window of {len(self.window)} shifts)"
        )

    # -- covering structure -------------------------------------------------------

    @property
    def is_cover(self) -> bool:
        return True

    def fundamental_domain(self) -> tuple:
        e = self.group.identity()
        return tuple((v, e) for v in self.base_presentation.vertices)

    def in_box(self, g) -> bool:
        return g in self.window.element_set

    def in_window(self, objects) -> bool:
        return all(self.in_box(x[1]) for x in objects)

    def twist_object(self, a, x):
        v, g = x
        return (v, self.group.op(a, g))

    def twist_generator(self, a, gen):
        name, g = gen
        return (name, self.group.op(a, g))

    # supports of representable functors, from base data (exact, global)

    def projective_support(self, x) -> tuple:
        """Objects where C(-, x) is nonzero, whether or not they sit in the box."""
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


def smash_cover(pres: GradedQuiverPresentation, window: Window) -> CoverCarrier:
    """The covering category with the given window box.

    One carrier per (presentation, window): every caller shares it, and
    with it the representables and indecomposable pools memoised on it."""
    covers = pres.memo("covers")
    if window not in covers:
        covers[window] = CoverCarrier(pres, window)
    return covers[window]


def materialize_presentation(cover: CoverCarrier):
    """Flatten a full-group finite cover into a trivially graded presentation.

    Returns (presentation, vertex_map, arrow_map) where the maps describe the
    shift action of a generator of the (cyclic) grading group, suitable for
    orbit reconstruction.  Only defined when the group is finite and the
    window is the whole group.
    """
    from .groups import Group
    from .presentation import Arrow

    group = cover.group
    if not group.is_finite or len(cover.window) != len(group.all_elements()):
        raise WindowTooSmall("materializing needs a finite group with a full box")
    pres = cover.base_presentation

    def vname(x):
        v, g = x
        return f"{v}@{group.element_to_json(g)}"

    def aname(gen):
        name, g = gen
        return f"{name}@{group.element_to_json(g)}"

    vertices = [vname(x) for x in cover.objects]
    arrows = [
        Arrow(aname(gen), vname(cover.gen_src(gen)), vname(cover.gen_tgt(gen)), ())
        for gen in cover.generators
    ]
    relations = [
        [(c, tuple(aname(gen) for gen in cover._lift_path(path, g))) for c, path in rel]
        for rel in pres.relations
        for g in cover.window.sorted_elements()
    ]
    flat = GradedQuiverPresentation(
        pres.field, Group.trivial(), vertices, arrows, relations, pres.nilbound
    )
    shift = 1 if group.kind == "cyclic" else group.identity()
    vertex_map = {
        vname(x): vname(cover.twist_object(shift, x)) for x in cover.objects
    }
    arrow_map = {
        aname(gen): aname(cover.twist_generator(shift, gen)) for gen in cover.generators
    }
    return flat, vertex_map, arrow_map
