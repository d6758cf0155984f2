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

from .carrier import Carrier
from .errors import (
    InhomogeneousRelation,
    NotAdmissible,
    NotFreeAction,
    NotLocallyBounded,
    SchemaError,
)
from .field import Field, Mat, rref, solve_linear
from .groups import Group


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    tgt: str
    weight: object  # a group element


# A relation is a tuple of (coefficient, path) terms; a path is a tuple of
# arrow names composing left to right.
Relation = tuple


class GradedQuiverPresentation(Carrier):
    """A validated graded quiver presentation, usable directly as a carrier."""

    def __init__(self, field: Field, group: Group, vertices, arrows, relations, nilbound: int):
        self.field = field
        self.group = group
        self._vertices = tuple(vertices)
        self._arrow_list = tuple(arrows)
        self._arrow_map = {a.name: a for a in self._arrow_list}
        self._generators = tuple(a.name for a in self._arrow_list)
        self.relations = tuple(
            tuple((field.scalar(c), tuple(path)) for c, path in rel) for rel in relations
        )
        self.nilbound = int(nilbound)
        self._op = None
        self._validate_shape()
        self._build_path_spaces()

    # -- construction-time validation ---------------------------------------

    def _validate_shape(self):
        if len(set(self._vertices)) != len(self._vertices):
            raise SchemaError("duplicate vertex ids")
        if len(self._arrow_map) != len(self._arrow_list):
            raise SchemaError("duplicate arrow ids")
        if self.nilbound < 0:
            raise SchemaError("nilbound must be >= 0")
        for a in self._arrow_list:
            if a.src not in self._vertices or a.tgt not in self._vertices:
                raise SchemaError(f"arrow {a.name} has unknown endpoint")
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
        ell = self.nilbound
        arrows_by_src = {}
        for a in self._arrow_list:
            arrows_by_src.setdefault(a.src, []).append(a)
        arrow_pos = {a.name: i for i, a in enumerate(self._arrow_list)}

        # raw[(x, y, d)] = ordered list of raw paths of length d
        raw: dict = {}
        for x in self._vertices:
            raw[(x, x, 0)] = [()]
        for d in range(ell + 1):
            for (x, y, dd), paths in list(raw.items()):
                if dd != d:
                    continue
                for p in paths:
                    for a in arrows_by_src.get(y, []):
                        raw.setdefault((x, a.tgt, d + 1), []).append(p + (a.name,))
        for key in raw:
            raw[key].sort(key=lambda p: tuple(arrow_pos[n] for n in p))

        rel_by_endpoints: dict = {}
        for rel in self.relations:
            _, path0 = rel[0]
            s = self._arrow_map[path0[0]].src
            t = self._arrow_map[path0[-1]].tgt
            rel_by_endpoints.setdefault((s, t), []).append(rel)

        self._normal: dict = {}
        self._reduce: dict = {}
        survivors_past_bound = []
        for x in self._vertices:
            for y in self._vertices:
                self._normal[(x, y)] = []
                self._reduce[(x, y)] = {}
        for d in range(ell + 2):
            for x in self._vertices:
                for y in self._vertices:
                    paths = raw.get((x, y, d), [])
                    if not paths:
                        continue
                    index = {p: i for i, p in enumerate(paths)}
                    rows = []
                    for (s, t), rels in rel_by_endpoints.items():
                        for rel in rels:
                            rlen = len(rel[0][1])
                            for du in range(d - rlen + 1):
                                dv = d - rlen - du
                                for u in raw.get((x, s, du), []):
                                    for v in raw.get((t, y, dv), []):
                                        row = [0] * len(paths)
                                        for c, p in rel:
                                            row[index[u + p + v]] = c
                                        rows.append(row)
                    if rows:
                        red, pivots = rref(Mat.from_rows(self.field, rows))
                        pivot_set = set(pivots)
                    else:
                        red, pivots, pivot_set = None, (), set()
                    normal_here = [p for i, p in enumerate(paths) if i not in pivot_set]
                    if d <= ell:
                        self._normal[(x, y)].extend(normal_here)
                        for p in normal_here:
                            self._reduce[(x, y)][p] = {p: self.field.scalar(1)}
                    elif normal_here:
                        survivors_past_bound.append((x, y, normal_here[0]))
                    for i, c in enumerate(pivots):
                        combo = {}
                        if d <= ell:
                            for j, q in enumerate(paths):
                                if j in pivot_set or red.a[i, j] == 0:
                                    continue
                                combo[q] = self.field.neg_scalar(red.a[i, j])
                        self._reduce[(x, y)][paths[c]] = combo
        if survivors_past_bound:
            x, y, p = survivors_past_bound[0]
            raise NotLocallyBounded(
                f"path {'*'.join(p)} from {x} to {y} of length {self.nilbound + 1} "
                "does not reduce to zero; the path spaces are infinite-dimensional "
                "or the declared nilbound is understated"
            )
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

    def reduce_raw(self, x, y, raw_path) -> dict:
        """Normal form of a raw path of length <= nilbound + 1."""
        table = self._reduce[(x, y)]
        if raw_path in table:
            return table[raw_path]
        raise SchemaError(f"path {raw_path!r} is not a raw path from {x} to {y}")

    # -- Carrier interface ------------------------------------------------------

    @property
    def objects(self) -> tuple:
        return self._vertices

    def hom_labels(self, x, y) -> tuple:
        return self._normal[(x, y)]

    def compose_labels(self, x, y, z, f, g):
        combo = {f: self.field.scalar(1)}
        cur = y
        for name in g:
            nxt = self._arrow_map[name].tgt
            out: dict = {}
            for p, c in combo.items():
                for q, c2 in self.reduce_raw(x, nxt, p + (name,)).items():
                    val = self.field.scalar(out.get(q, 0) + c * c2)
                    out[q] = val
            combo = {p: c for p, c in out.items() if c != 0}
            cur = nxt
        return combo

    def identity_combo(self, x):
        return {(): self.field.scalar(1)}

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

    def validation_relations(self):
        for rel in self.relations:
            _, path0 = rel[0]
            s = self._arrow_map[path0[0]].src
            t = self._arrow_map[path0[-1]].tgt
            yield s, t, [(c, path) for c, path in rel]

    def opposite_combo(self, x, y, combo: dict) -> dict:
        # normal-form bases are chosen independently on each side; re-reduce
        # the reversed raw paths in the opposite presentation
        op = self.opposite()
        out: dict = {}
        for p, c in combo.items():
            for q, c2 in op.reduce_raw(y, x, tuple(reversed(p))).items():
                val = self.field.scalar(out.get(q, 0) + c * c2)
                out[q] = val
        return {q: c for q, c in out.items() if c != 0}

    def opposite(self) -> "GradedQuiverPresentation":
        if self._op is None:
            arrows = [
                Arrow(a.name, a.tgt, a.src, self.group.inv(a.weight)) for a in self._arrow_list
            ]
            relations = [
                [(c, tuple(reversed(path))) for c, path in rel] for rel in self.relations
            ]
            op = GradedQuiverPresentation(
                self.field, self.group, self._vertices, arrows, relations, self.nilbound
            )
            op._op = self
            self._op = op
        return self._op

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
        if "p" not in doc or not isinstance(doc["p"], int):
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
        if "rank" not in doc or not isinstance(doc["rank"], int):
            raise SchemaError("free-abelian group needs an integer 'rank'")
        return Group.free_abelian(doc["rank"])
    if doc["kind"] == "cyclic":
        if "m" not in doc or not isinstance(doc["m"], int):
            raise SchemaError("cyclic group needs an integer 'm'")
        return Group.cyclic(doc["m"])
    raise SchemaError(f"unknown group kind {doc['kind']!r}")


def load_presentation(document: dict) -> GradedQuiverPresentation:
    """Validate a JSON document (already parsed) into a presentation."""
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
    arrows = []
    for entry in document["arrows"]:
        if not isinstance(entry, dict):
            raise SchemaError("each arrow must be an object")
        for key in ("id", "src", "tgt"):
            if key not in entry:
                raise SchemaError(f"arrow missing {key!r}")
        weight = group.coerce(entry.get("weight", group.element_to_json(group.identity())))
        arrows.append(Arrow(entry["id"], entry["src"], entry["tgt"], weight))
    relations = []
    for rel_doc in document.get("relations", []):
        if not isinstance(rel_doc, list):
            raise SchemaError("each relation must be a list of terms")
        terms = []
        for term in rel_doc:
            if not isinstance(term, dict) or "coeff" not in term or "path" not in term:
                raise SchemaError("relation terms need 'coeff' and 'path'")
            try:
                coeff = field.scalar_from_string(str(term["coeff"]))
            except (ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"bad coefficient {term['coeff']!r}: {exc}") from exc
            terms.append((coeff, tuple(term["path"])))
        terms = [(c, p) for c, p in terms if c != 0]
        if not terms:
            raise SchemaError("relation is identically zero")
        relations.append(terms)
    nilbound = document["nilbound"]
    if not isinstance(nilbound, int):
        raise SchemaError("nilbound must be an integer")
    return GradedQuiverPresentation(field, group, vertices, arrows, relations, nilbound)


def load_presentation_file(path) -> GradedQuiverPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}") from exc
    return load_presentation(doc)


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
        for _ in range(k % m):
            v = vertex_map[v]
        return v

    def a_power(name, k):
        for _ in range(k % m):
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

    # the action must permute the relation span, endpoint pair by endpoint pair
    def relation_key(rel):
        _, path0 = rel[0]
        return (pres.arrow(path0[0]).src, pres.arrow(path0[-1]).tgt)

    def relation_vector(rel, path_index):
        row = [0] * len(path_index)
        for c, p in rel:
            row[path_index[p]] += c
        return row

    rel_groups: dict = {}
    for rel in pres.relations:
        rel_groups.setdefault(relation_key(rel), []).append(rel)
    for (s, t), rels in list(rel_groups.items()):
        paths = sorted({p for rel in rels for _, p in rel} | {
            tuple(a_power(n, 1) for n in p) for rel in rels for _, p in rel
        })
        path_index = {p: i for i, p in enumerate(paths)}
        base_rows = [relation_vector(rel, path_index) for rel in rels]
        other_key = (v_power(s, 1), v_power(t, 1))
        other = rel_groups.get(other_key, [])
        other_paths = sorted({p for rel in other for _, p in rel} | set(paths))
        # image of each relation must lie in the span of relations at the image pair
        full_index = {p: i for i, p in enumerate(other_paths)}
        span_rows = [relation_vector(rel, full_index) for rel in other]
        span = Mat.from_rows(pres.field, span_rows) if span_rows else None
        for rel in rels:
            image = [(c, tuple(a_power(n, 1) for n in p)) for c, p in rel]
            vec = relation_vector(image, full_index)
            if span is None:
                if any(v != 0 for v in vec):
                    raise SchemaError("action does not permute the relation ideal")
                continue
            sol = solve_linear(span.transpose(), Mat.from_rows(pres.field, [[v] for v in vec]))
            if sol is None:
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
        s, _ = relation_key(rel)
        k = (-shift[s]) % m
        based = [(c, tuple(a_power(n, k) for n in p)) for c, p in rel]
        image = tuple(sorted(((c, tuple(arrow_orbit_rep[n] for n in p)) for c, p in based)))
        if image not in seen_vectors:
            seen_vectors[image] = True
            chosen.append([(c, tuple(arrow_orbit_rep[n] for n in p)) for c, p in based])

    return GradedQuiverPresentation(
        pres.field, acting, quotient_vertices, quotient_arrows, chosen, pres.nilbound
    )
