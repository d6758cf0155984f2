"""Finite windows of the covering category attached to a graded presentation.

The covering category C has objects (v, g) for base vertices v and group
elements g, and C((v,g),(w,h)) is the weight-(h-g) component of the base path
space from v to w (the smash-product description).  A CoverCarrier
materializes the full subcategory on the window box; hom spaces are exact for
every pair of window objects because they are computed from base data, never
from a truncated quiver.  Only module-level constructions (projectives,
resolutions, twists) can run out of the window, raising WindowTooSmall.
"""

from __future__ import annotations

from .carrier import Carrier
from .errors import WindowTooSmall
from .groups import Window
from .presentation import GradedQuiverPresentation


class CoverCarrier(Carrier):
    """The covering category restricted to a finite window of shifts."""

    def __init__(self, pres: GradedQuiverPresentation, window: Window):
        if window.group != pres.group:
            raise WindowTooSmall("window group does not match the presentation group")
        self.base_presentation = pres
        self.window = window
        self.group = pres.group
        self.field = pres.field
        shifts = window.sorted_elements()
        self._objects = tuple((v, g) for g in shifts for v in pres.vertices)
        # generator (arrow, g) -> its source and target objects
        self._gen_src = {}
        self._gen_tgt = {}
        inside = window.element_set
        for g in shifts:
            for a in pres.arrows:
                h = self.group.op(g, a.weight)
                if h in inside:
                    self._gen_src[(a.name, g)] = (a.src, g)
                    self._gen_tgt[(a.name, g)] = (a.tgt, h)
        self._generators = tuple(self._gen_src)
        self._op = None
        self._relations = self._lift_relations()
        # every generating relation must fit somewhere in the box, otherwise
        # window modules would be unconstrained by its shape
        self._check_relation_coverage()

    # -- construction helpers -------------------------------------------------

    def _lift_path(self, path, g):
        """Shift sequence of a lifted path; None when it leaves the box."""
        inside = self.window.element_set
        shifts = [g]
        cur = g
        for name in path:
            cur = self.group.op(cur, self.base_presentation.arrow(name).weight)
            shifts.append(cur)
        if all(s in inside for s in shifts):
            return shifts
        return None

    def _lift_relations(self):
        out = []
        pres = self.base_presentation
        for rel_index, rel in enumerate(pres.relations):
            _, path0 = rel[0]
            src = pres.arrow(path0[0]).src
            for g in self.window.sorted_elements():
                terms = []
                total = 0
                for c, path in rel:
                    total += 1
                    shifts = self._lift_path(path, g)
                    if shifts is None:
                        continue
                    word = tuple(
                        (name, shifts[i]) for i, name in enumerate(path)
                    )
                    terms.append((c, word))
                if terms:
                    full = len(terms) == total
                    out.append((rel, ((src, g), rel_index, terms, full)))
        return tuple(out)

    def _check_relation_coverage(self):
        pres = self.base_presentation
        covered = set()
        for rel, (start, rel_index, terms, full) in self._relations:
            if full:
                covered.add(rel_index)
        missing = [k for k in range(len(pres.relations)) if k not in covered]
        if missing:
            raise WindowTooSmall(
                f"window box cannot hold any full lift of relation {missing[0]}"
            )

    # -- Carrier interface ------------------------------------------------------

    @property
    def objects(self) -> tuple:
        return self._objects

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
        return self._generators

    def gen_src(self, gen):
        return self._gen_src[gen]

    def gen_tgt(self, gen):
        return self._gen_tgt[gen]

    def gen_label(self, gen):
        return (gen[0],)

    def label_word(self, x, y, label) -> tuple:
        shifts = self._lift_path(label, x[1])
        if shifts is None:
            raise WindowTooSmall(
                f"path {label!r} from {x!r} leaves the window box"
            )
        return tuple((name, shifts[i]) for i, name in enumerate(label))

    def validation_relations(self):
        for rel, (start, rel_index, terms, full) in self._relations:
            src, g = start
            _, path0 = rel[0]
            tgt = self.base_presentation.arrow(path0[-1]).tgt
            h = self.group.op(g, self.base_presentation.path_weight(path0))
            yield (src, g), (tgt, h), terms

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

    def require_in_box(self, objs, what: str):
        missing = [x for x in objs if not self.in_box(x[1])]
        if missing:
            raise WindowTooSmall(
                f"{what} needs covering vertices outside the window box: "
                f"{missing[:4]}{'...' if len(missing) > 4 else ''}"
            )


def smash_cover(pres: GradedQuiverPresentation, window: Window) -> CoverCarrier:
    """Materialize the covering category on the given window box.

    One carrier per (presentation, window): every caller shares it, and
    with it the representables and indecomposable pools memoised on it.
    A window that raises is not remembered."""
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
    relations = []
    for (src, g), _, terms, full in (r[1] for r in cover._relations):
        if not full:
            continue
        rel = []
        for c, word in terms:
            rel.append((c, tuple(aname(gen) for gen in word)))
        relations.append(rel)
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
