"""Finite k-linear categories presented by hom bases and structure constants.

Every algebra-like object in the package (a bound quiver presentation, its
covering category, the endomorphism category of a finite subcategory)
implements this interface.  Module theory, resolutions and all
verifiers are written once against it.

A carrier consists of:

* an ordered tuple of objects (hashable keys);
* for each ordered pair (x, y), an ordered basis of the hom space C(x, y),
  addressed by opaque labels;
* structure constants: composition of two basis elements expanded in the
  basis of the target hom space (left-to-right: f in C(x,y) followed by
  g in C(y,z) lands in C(x,z));
* a distinguished generating set of basis elements ("generators", the
  arrows of a quiver) such that every basis element is a word in them;
* relations: k-linear combinations of generator words that must act as
  zero on every module, listed per source object by relations_at;
* the seed of the random candidates that decomposition tries, fixed when a
  presentation is loaded and copied by every carrier built from another,
  so work memoised on a carrier is seeded alike.

A carrier need not list everything: a covering category lists neither its
objects nor its `generators`, and an endomorphism category lists one object
per generator of its subcategory (per twist orbit over a covering) and no
`generators`.  Every other method accepts any object, and module operations
reach generators through the incidence lists.

Right modules are contravariant functors: a generator g: x -> y acts on a
module M by a matrix M(g): M(y) -> M(x) of shape dims(x) x dims(y).
"""

from __future__ import annotations

from .field import Field, Mat

ISO_SEED = 0xC0FFEE


class Carrier:
    """Base class; subclasses fill the hom-basis and composition data."""

    field: Field
    seed: int = ISO_SEED

    # ---- interface to implement ------------------------------------------

    @property
    def objects(self) -> tuple:
        raise NotImplementedError

    def hom_labels(self, x, y) -> tuple:
        """Ordered basis labels of C(x, y)."""
        raise NotImplementedError

    def compose_labels(self, x, y, z, f, g) -> dict:
        """Expansion of f.g (f in C(x,y), g in C(y,z)) over hom_labels(x,z)."""
        raise NotImplementedError

    @property
    def generators(self) -> tuple:
        """Ordered generator keys."""
        raise NotImplementedError

    def gen_src(self, g):
        raise NotImplementedError

    def gen_tgt(self, g):
        raise NotImplementedError

    def gen_label(self, g):
        """The hom-basis label realizing generator g in C(src, tgt)."""
        raise NotImplementedError

    def label_word(self, x, y, label) -> tuple:
        """A generator word evaluating to the given basis element."""
        raise NotImplementedError

    def relations_at(self, x) -> tuple:
        """The relations modules kill, by source: (index, target, terms) for
        each relation starting at x, its terms (coefficient, generator word)."""
        raise NotImplementedError

    def opposite(self) -> "Carrier":
        """The opposite category, built once per carrier."""
        op = self.__dict__.get("_opposite")
        if op is None:
            op = self._opposite = OppositeCarrier(self)
        return op

    def describe(self) -> str:
        return type(self).__name__

    # covering extras (overridden by carriers with a group action) ----------

    @property
    def is_cover(self) -> bool:
        return False

    def fundamental_domain(self) -> tuple:
        """Objects representing each orbit (all objects when no action)."""
        return self.objects

    # ---- derived helpers ---------------------------------------------------

    def hom_dim(self, x, y) -> int:
        return len(self.hom_labels(x, y))

    def object_index(self, x) -> int:
        return self._object_index_map()[x]

    def _object_index_map(self):
        cache = getattr(self, "_obj_idx", None)
        if cache is None:
            cache = {x: i for i, x in enumerate(self.objects)}
            self._obj_idx = cache
        return cache

    def has_object(self, x) -> bool:
        return x in self._object_index_map()

    def has_generator(self, g) -> bool:
        return g in self.generators

    def memo(self, name: str) -> dict:
        """The carrier's cache table `name`, created empty on first use.

        Work shared by every caller over this carrier (representables,
        indecomposable pools, the cover of a presentation) lives here,
        so it is dropped with the carrier and never outlives it."""
        tables = self.__dict__.setdefault("_memo_tables", {})
        return tables.setdefault(name, {})

    def projective_support(self, x) -> tuple:
        """Objects where C(-, x) is nonzero."""
        return tuple(y for y in self.objects if self.hom_dim(y, x))

    def injective_support(self, x) -> tuple:
        """Objects where C(x, -) is nonzero."""
        return tuple(y for y in self.objects if self.hom_dim(x, y))

    def compose_combos(self, x, y, z, fc: dict, gc: dict) -> dict:
        out: dict = {}
        for f, cf in fc.items():
            if cf == 0:
                continue
            for g, cg in gc.items():
                if cg == 0:
                    continue
                for lab, c in self.compose_labels(x, y, z, f, g).items():
                    out[lab] = self.field.scalar(out.get(lab, 0) + cf * cg * c)
        return {lab: c for lab, c in out.items() if c != 0}

    def left_mult_mat(self, g, x) -> Mat:
        """Matrix of C(tgt g, x) -> C(src g, x), q |-> g.q (columns in basis order)."""
        s, t = self.gen_src(g), self.gen_tgt(g)
        cols = self.hom_labels(t, x)
        rows = self.hom_labels(s, x)
        index = {lab: i for i, lab in enumerate(rows)}
        m = [[0] * len(cols) for _ in rows]
        glab = self.gen_label(g)
        for j, q in enumerate(cols):
            for lab, c in self.compose_labels(s, t, x, glab, q).items():
                m[index[lab]][j] = c
        return Mat.from_rows(self.field, m, len(cols))

    def generators_at_source(self, x) -> tuple:
        """The generators starting at x, in generator order."""
        return self._incidence()[0].get(x, ())

    def generators_at_target(self, x) -> tuple:
        """The generators ending at x, in generator order."""
        return self._incidence()[1].get(x, ())

    def _incidence(self) -> tuple:
        tables = self.__dict__.get("_incidence_tables")
        if tables is None:
            by_src: dict = {}
            by_tgt: dict = {}
            for g in self.generators:
                by_src.setdefault(self.gen_src(g), []).append(g)
                by_tgt.setdefault(self.gen_tgt(g), []).append(g)
            tables = tuple({x: tuple(gs) for x, gs in t.items()} for t in (by_src, by_tgt))
            self._incidence_tables = tables
        return tables


class OppositeCarrier(Carrier):
    """The opposite category of a carrier, sharing labels and generator keys.

    C^op(x,y) uses the basis labels of C(y,x); generator keys are reused with
    source and target exchanged, and the supports and incidence lists are
    the base's with the directions exchanged, so no object or generator list
    is needed.  Every carrier's opposite is one of these, so no basis of
    C^op is ever recomputed.
    """

    def __init__(self, base: Carrier):
        self.base = base
        self.field = base.field
        self.seed = base.seed

    @property
    def objects(self) -> tuple:
        return self.base.objects

    def object_index(self, x):
        return self.base.object_index(x)

    def hom_labels(self, x, y) -> tuple:
        return self.base.hom_labels(y, x)

    def compose_labels(self, x, y, z, f, g):
        # f in C^op(x,y) = C(y,x), g in C^op(y,z) = C(z,y); f.g in C^op = g.f in C
        return self.base.compose_labels(z, y, x, g, f)

    def gen_src(self, g):
        return self.base.gen_tgt(g)

    def gen_tgt(self, g):
        return self.base.gen_src(g)

    def gen_label(self, g):
        return self.base.gen_label(g)

    def label_word(self, x, y, label) -> tuple:
        return tuple(reversed(self.base.label_word(y, x, label)))

    def has_object(self, x) -> bool:
        return self.base.has_object(x)

    def has_generator(self, g) -> bool:
        return self.base.has_generator(g)

    def fundamental_domain(self) -> tuple:
        return self.base.fundamental_domain()

    def projective_support(self, x) -> tuple:
        return self.base.injective_support(x)

    def injective_support(self, x) -> tuple:
        return self.base.projective_support(x)

    def generators_at_source(self, x) -> tuple:
        return self.base.generators_at_target(x)

    def generators_at_target(self, x) -> tuple:
        return self.base.generators_at_source(x)

    def opposite(self) -> Carrier:
        return self.base

    def describe(self) -> str:
        return f"op({self.base.describe()})"
