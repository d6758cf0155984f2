"""Bound quiver presentations with a group grading on arrows.

A presentation encodes simultaneously a finite-dimensional algebra (the base,
as a quiver with admissible relations) and its covering category (through the
weight grading; see cover.py).  Path spaces are computed exactly, degree by
degree, which is sound because relations are required to be homogeneous both
in weight and in path length; the declared nilpotency bound is certified by
checking that every path one step beyond it reduces to zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .carrier import ISO_SEED, Carrier
from .errors import (
    InhomogeneousRelation,
    NotAdmissible,
    NotFreeAction,
    NotLocallyBounded,
    SchemaError,
)
from .field import Field, Mat, rref
from .groups import Group, _is_integer


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str
    weight: object  # a group element


class GradedQuiverPresentation(Carrier):
    """A validated graded quiver presentation, usable directly as a carrier."""

    def __init__(
        self, field: Field, group: Group, vertices, arrows, relations, nilbound: int,
        seed: int = ISO_SEED,
    ):
        self.field = field
        self.group = group
        self.seed = seed
        self._vertices = tuple(vertices)
        self._arrow_list = tuple(arrows)
        self._arrow_map = {a.name: a for a in self._arrow_list}
        self._generators = tuple(a.name for a in self._arrow_list)
        self.relations = tuple(
            tuple((field.scalar(c), tuple(path)) for c, path in rel) for rel in relations
        )
        self.nilbound = int(nilbound)
        self._validate_shape()
        self._build_path_spaces()

    # -- construction-time validation ---------------------------------------

    def _validate_shape(self):
        if not self._vertices:
            raise SchemaError("a presentation needs at least one vertex")
        if len(set(self._vertices)) != len(self._vertices):
            raise SchemaError("duplicate vertex ids")
        if len(self._arrow_map) != len(self._arrow_list):
            raise SchemaError("duplicate arrow ids")
        if self.nilbound < 0:
            raise SchemaError("nilbound must be >= 0")
        for a in self._arrow_list:
            if a.src not in self._vertices or a.tgt not in self._vertices:
                raise SchemaError(f"arrow {a.name} has unknown endpoint")
        self._relations_at: dict = {}
        for k, rel in enumerate(self.relations):
            if not rel:
                raise SchemaError(f"relation {k} is empty")
            endpoints = set()
            weights = set()
            lengths = set()
            for c, path in rel:
                if not path:
                    raise NotAdmissible(f"relation {k} contains an empty path")
                for name in path:
                    if name not in self._arrow_map:
                        raise SchemaError(f"relation {k} uses unknown arrow {name!r}")
                for p, q in zip(path, path[1:]):
                    if self._arrow_map[p].tgt != self._arrow_map[q].src:
                        raise SchemaError(f"relation {k} contains a non-composable path")
                endpoints.add((self._arrow_map[path[0]].src, self._arrow_map[path[-1]].tgt))
                weights.add(self.path_weight(path))
                lengths.add(len(path))
            if len(endpoints) != 1:
                raise InhomogeneousRelation(f"relation {k}: paths have different endpoints")
            [(s, t)] = endpoints
            self._relations_at.setdefault(s, []).append((k, t, rel))
            if len(weights) != 1:
                raise InhomogeneousRelation(f"relation {k}: paths have different weights")
            if min(lengths) < 2:
                raise NotAdmissible(f"relation {k}: paths must have length >= 2")
            if len(lengths) != 1:
                raise NotAdmissible(
                    f"relation {k}: paths mix lengths {sorted(lengths)}; "
                    "only length-homogeneous relations are supported"
                )

    # -- path spaces ----------------------------------------------------------

    def _build_path_spaces(self):
        # Modulo I_{d-1}*arrows, degree d has the basis of words p*a, p a
        # normal path of degree d - 1 and a an arrow; in the degree-
        # lexicographic column order the leading paths of I_{d-1}*a are those
        # of I_{d-1} followed by a, so every normal path is such a word.  The
        # relations are the rows u*r, u a normal path of degree d - |r|, as
        # u*r*v*a lies in I_{d-1}*a.  A degree wholly in the ideal leaves the
        # next no words, so an overstated nilbound costs nothing.
        verts = self._vertices
        arrows_by_src, relations_into = {}, {}
        for a in self._arrow_list:
            arrows_by_src.setdefault(a.src, []).append(a)
        for s in verts:
            for _, t, rel in self.relations_at(s):
                relations_into.setdefault(t, []).append((s, rel))
        arrow_pos = {a.name: i for i, a in enumerate(self._arrow_list)}
        self._normal = {(x, y): [()] if x == y else [] for x in verts for y in verts}
        # _reduce[(x, y)][p + (a,)]: the normal form of a normal path p from
        # x followed by an arrow a to y, the only words compose_labels reads
        self._reduce = {key: {} for key in self._normal}
        # layers[d][(x, y)]: the normal paths of length d from x to y
        layers = [{(x, x): [()] for x in verts}]
        for d in range(1, self.nilbound + 2):
            words: dict = {}
            for (x, s), paths in layers[-1].items():
                for a in arrows_by_src.get(s, ()):
                    words.setdefault((x, a.tgt), []).extend(p + (a.name,) for p in paths)
            layers.append({})
            for x in verts:
                for y in verts:
                    paths = sorted(
                        words.get((x, y), ()), key=lambda p: tuple(arrow_pos[n] for n in p)
                    )
                    if not paths:
                        continue
                    index = {p: i for i, p in enumerate(paths)}
                    rows = []
                    for s, rel in relations_into.get(y, ()):
                        du = d - len(rel[0][1])
                        for u in layers[du].get((x, s), ()) if du >= 0 else ():
                            # u*r, each path reduced but for its last arrow
                            rows.append([0] * len(paths))
                            for c, path in rel:
                                mid = self._arrow_map[path[-1]].src
                                for q, c2 in self.compose_labels(x, s, mid, u, path[:-1]).items():
                                    rows[-1][index[q + path[-1:]]] += c * c2
                    red, pivots = rref(Mat.from_rows(self.field, rows)) if rows else (None, ())
                    pivot_set = set(pivots)
                    normal_here = [p for i, p in enumerate(paths) if i not in pivot_set]
                    if normal_here and d > self.nilbound:
                        raise NotLocallyBounded(
                            f"path {'*'.join(normal_here[0])} from {x} to {y} of length "
                            f"{self.nilbound + 1} does not reduce to zero; the path spaces "
                            "are infinite-dimensional or the declared nilbound is understated"
                        )
                    if normal_here:
                        layers[d][(x, y)] = normal_here
                        self._normal[(x, y)].extend(normal_here)
                    self._reduce[(x, y)].update({p: {p: self.field.scalar(1)} for p in normal_here})
                    for i, c in enumerate(pivots):
                        self._reduce[(x, y)][paths[c]] = {
                            q: self.field.neg_scalar(red[i, j])
                            for j, q in enumerate(paths)
                            if j not in pivot_set and red[i, j] != 0
                        }
            if not layers[d]:
                break
        for key in self._normal:
            self._normal[key] = tuple(self._normal[key])
        self.ell_star = max(
            (len(p) for labels in self._normal.values() for p in labels), default=0
        )
        self._path_weights = {}
        for (x, y), labels in self._normal.items():
            for p in labels:
                self._path_weights[p] = self.path_weight(p)

    # -- quiver accessors -----------------------------------------------------

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def arrows(self) -> tuple:
        return self._arrow_list

    def arrow(self, name: str) -> Arrow:
        return self._arrow_map[name]

    def path_weight(self, path):
        w = self.group.identity()
        for name in path:
            w = self.group.op(w, self._arrow_map[name].weight)
        return w

    def path_basis(self, x, y) -> tuple:
        """Basis of the path space from x to y modulo the relation ideal."""
        return self._normal[(x, y)]

    # -- Carrier interface ------------------------------------------------------

    @property
    def objects(self) -> tuple:
        return self._vertices

    def hom_labels(self, x, y) -> tuple:
        return self._normal[(x, y)]

    def compose_labels(self, x, y, z, f, g):
        # each step appends one arrow to a normal path of length <= nilbound,
        # a word the reduction table holds
        combo = {f: self.field.scalar(1)}
        for name in g:
            table = self._reduce[(x, self._arrow_map[name].tgt)]
            out: dict = {}
            for p, c in combo.items():
                for q, c2 in table[p + (name,)].items():
                    out[q] = self.field.scalar(out.get(q, 0) + c * c2)
            combo = {p: c for p, c in out.items() if c != 0}
        return combo

    @property
    def generators(self) -> tuple:
        return self._generators

    def gen_src(self, g):
        return self._arrow_map[g].src

    def gen_tgt(self, g):
        return self._arrow_map[g].tgt

    def gen_label(self, g):
        return (g,)

    def label_word(self, x, y, label) -> tuple:
        return label

    def relations_at(self, x) -> tuple:
        """(index, target, terms) of each relation starting at x; a term is
        (coefficient, path), a path a tuple of arrow names composing left to
        right."""
        return self._relations_at.get(x, ())

    def describe(self) -> str:
        return (
            f"quiver({len(self._vertices)} vertices, {len(self._arrow_list)} arrows, "
            f"{len(self.relations)} relations, nilbound {self.nilbound})"
        )

    # -- misc -------------------------------------------------------------------

    def is_square_free(self) -> bool:
        seen = set()
        for a in self._arrow_list:
            key = (a.src, a.tgt)
            if key in seen:
                return False
            seen.add(key)
        return True

    def total_dimension(self) -> int:
        return sum(len(v) for v in self._normal.values())

    def to_json_dict(self) -> dict:
        if self.field.is_prime_field:
            field_doc = {"kind": "prime", "p": self.field.p}
        else:
            field_doc = {"kind": "rationals"}
        return {
            "field": field_doc,
            "group": self.group.to_json(),
            "vertices": list(self._vertices),
            "arrows": [
                {
                    "id": a.name,
                    "src": a.src,
                    "tgt": a.tgt,
                    "weight": self.group.element_to_json(a.weight),
                }
                for a in self._arrow_list
            ],
            "relations": [
                [{"coeff": self.field.scalar_to_string(c), "path": list(p)} for c, p in rel]
                for rel in self.relations
            ],
            "nilbound": self.nilbound,
        }


# ---------------------------------------------------------------------------
# loading


def _parse_field(doc) -> Field:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("field must be an object with a 'kind'")
    if doc["kind"] == "prime":
        if "p" not in doc or not _is_integer(doc["p"]):
            raise SchemaError("prime field needs an integer 'p'")
        try:
            return Field.prime(doc["p"])
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if doc["kind"] == "rationals":
        return Field.rationals()
    raise SchemaError(f"unknown field kind {doc['kind']!r}")


def _parse_group(doc) -> Group:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise SchemaError("group must be an object with a 'kind'")
    if doc["kind"] == "free-abelian":
        if "rank" not in doc or not _is_integer(doc["rank"]):
            raise SchemaError("free-abelian group needs an integer 'rank'")
        return Group.free_abelian(doc["rank"])
    if doc["kind"] == "cyclic":
        if "m" not in doc or not _is_integer(doc["m"]):
            raise SchemaError("cyclic group needs an integer 'm'")
        return Group.cyclic(doc["m"])
    raise SchemaError(f"unknown group kind {doc['kind']!r}")


def load_presentation(document: dict, seed: int = ISO_SEED) -> GradedQuiverPresentation:
    """Validate a JSON document (already parsed) into a presentation whose
    decomposition draws its random candidates from seed."""
    if not isinstance(document, dict):
        raise SchemaError("presentation document must be a JSON object")
    for key in ("field", "group", "vertices", "arrows", "nilbound"):
        if key not in document:
            raise SchemaError(f"missing required key {key!r}")
    field = _parse_field(document["field"])
    group = _parse_group(document["group"])
    vertices = document["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise SchemaError("vertices must be a list of strings")
    if not isinstance(document["arrows"], list):
        raise SchemaError("arrows must be a list of objects")
    arrows = []
    for entry in document["arrows"]:
        if not isinstance(entry, dict):
            raise SchemaError("each arrow must be an object")
        for key in ("id", "src", "tgt"):
            if not isinstance(entry.get(key), str):
                raise SchemaError(f"arrow needs a string {key!r}")
        weight = group.coerce(entry.get("weight", group.element_to_json(group.identity())))
        arrows.append(Arrow(entry["id"], entry["src"], entry["tgt"], weight))
    if not isinstance(document.get("relations", []), list):
        raise SchemaError("relations must be a list")
    relations = []
    for rel_doc in document.get("relations", []):
        if not isinstance(rel_doc, list):
            raise SchemaError("each relation must be a list of terms")
        terms = []
        for term in rel_doc:
            if not isinstance(term, dict) or "coeff" not in term or "path" not in term:
                raise SchemaError("relation terms need 'coeff' and 'path'")
            path = term["path"]
            if not isinstance(path, list) or not all(isinstance(a, str) for a in path):
                raise SchemaError(f"path {path!r} must be a list of arrow ids")
            try:
                coeff = field.scalar_from_string(str(term["coeff"]))
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad coefficient {term['coeff']!r}: {exc}") from exc
            terms.append((coeff, tuple(path)))
        terms = [(c, p) for c, p in terms if c != 0]
        if not terms:
            raise SchemaError("relation is identically zero")
        relations.append(terms)
    nilbound = document["nilbound"]
    if not _is_integer(nilbound):
        raise SchemaError("nilbound must be an integer")
    return GradedQuiverPresentation(field, group, vertices, arrows, relations, nilbound, seed)


def read_json(path):
    """The JSON document in a file; a file that is not JSON is a SchemaError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
            raise SchemaError(f"invalid JSON: {exc}") from exc


def load_presentation_file(path, seed: int = ISO_SEED) -> GradedQuiverPresentation:
    return load_presentation(read_json(path), seed)


# ---------------------------------------------------------------------------
# orbit categories of finite actions


def orbit_of_finite_action(
    pres: GradedQuiverPresentation,
    acting: Group,
    vertex_map: dict,
    arrow_map: dict,
) -> GradedQuiverPresentation:
    """Quotient a (trivially graded) presentation by a free cyclic action.

    The action is given on a generator of the cyclic group.  The output is
    graded by the acting group through a fundamental-domain section, so that
    its smash cover reconstructs the input.
    """
    if not pres.group.is_trivial:
        raise SchemaError("orbit quotients expect a trivially graded input")
    if acting.kind != "cyclic":
        raise SchemaError("finite actions are cyclic (use m=1 for the trivial action)")
    m = acting.order
    verts = pres.vertices
    if not isinstance(vertex_map, dict) or not isinstance(arrow_map, dict):
        raise SchemaError("vertex_map and arrow_map must be objects")
    if not all(isinstance(v, str) for m in (vertex_map, arrow_map) for v in m.values()):
        raise SchemaError("vertex_map and arrow_map must map names to names")
    if sorted(vertex_map) != sorted(verts) or sorted(vertex_map.values()) != sorted(verts):
        raise SchemaError("vertex_map must be a permutation of the vertices")
    names = [a.name for a in pres.arrows]
    if sorted(arrow_map) != sorted(names) or sorted(arrow_map.values()) != sorted(names):
        raise SchemaError("arrow_map must be a permutation of the arrows")
    for a in pres.arrows:
        b = pres.arrow(arrow_map[a.name])
        if b.src != vertex_map[a.src] or b.tgt != vertex_map[a.tgt]:
            raise SchemaError(f"arrow_map is not equivariant at {a.name}")

    def v_power(v, k):
        for _ in range(k):
            v = vertex_map[v]
        return v

    def a_power(name, k):
        for _ in range(k):
            name = arrow_map[name]
        return name

    for v in verts:
        if v_power(v, m) != v:
            raise SchemaError(f"vertex action has order > {m} at {v}")
        for k in range(1, m):
            if v_power(v, k) == v:
                raise NotFreeAction(f"{v} is fixed by a nontrivial power of the action")
    for name in names:
        if a_power(name, m) != name:
            raise SchemaError(f"arrow action has order > {m} at {name}")

    # the action must map the relation ideal I into itself (then onto it, as
    # it has finite order): each relation's image must reduce to zero
    for v in verts:
        sv = vertex_map[v]
        for _, t, terms in pres.relations_at(v):
            image: dict = {}
            for c, path in terms:
                word = tuple(arrow_map[n] for n in path)
                for q, c2 in pres.compose_labels(sv, sv, vertex_map[t], (), word).items():
                    image[q] = pres.field.scalar(image.get(q, 0) + c * c2)
            if any(image.values()):
                raise SchemaError("action does not permute the relation ideal")

    # orbits and the fundamental-domain section
    vertex_orbit_rep = {}
    shift = {}
    for v in verts:
        if v in vertex_orbit_rep:
            continue
        orbit = [v_power(v, k) for k in range(m)]
        for k, w in enumerate(orbit):
            vertex_orbit_rep[w] = v
            shift[w] = k % m
    arrow_orbit_rep = {}
    for name in names:
        if name in arrow_orbit_rep:
            continue
        for k in range(m):
            arrow_orbit_rep[a_power(name, k)] = name

    quotient_vertices = []
    for v in verts:
        if vertex_orbit_rep[v] == v:
            quotient_vertices.append(v)
    quotient_arrows = []
    arrow_orbit_instance = {}
    for a in pres.arrows:
        if arrow_orbit_rep[a.name] != a.name:
            continue
        # move the instance so that its source is the source-orbit representative
        k = (-shift[a.src]) % m
        inst = pres.arrow(a_power(a.name, k))
        arrow_orbit_instance[a.name] = inst
        weight = acting.coerce(shift[inst.tgt])
        quotient_arrows.append(
            Arrow(a.name, vertex_orbit_rep[inst.src], vertex_orbit_rep[inst.tgt], weight)
        )

    # one relation per orbit of relations: rebase each relation at the
    # source-orbit representative, then map arrows to orbit names
    chosen = []
    seen_vectors: dict = {}
    for rel in pres.relations:
        k = (-shift[pres.arrow(rel[0][1][0]).src]) % m
        based = [(c, tuple(a_power(n, k) for n in p)) for c, p in rel]
        image = tuple(sorted(((c, tuple(arrow_orbit_rep[n] for n in p)) for c, p in based)))
        if image not in seen_vectors:
            seen_vectors[image] = True
            chosen.append([(c, tuple(arrow_orbit_rep[n] for n in p)) for c, p in based])

    return GradedQuiverPresentation(
        pres.field, acting, quotient_vertices, quotient_arrows, chosen, pres.nilbound, pres.seed
    )
