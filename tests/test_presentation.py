"""Presentations: validation, path spaces, coverings, orbit quotients."""

import json
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

from quivercover import (
    EndoCarrier,
    FDModule,
    Field,
    GradedQuiverPresentation,
    Group,
    Mat,
    InhomogeneousRelation,
    NotAdmissible,
    NotFreeAction,
    NotLocallyBounded,
    SchemaError,
    list_indecomposables,
    load_presentation,
    orbit_of_finite_action,
    presentation,
    projective_at,
    rref,
    smash_cover,
    validate_module,
)
from quivercover.presentation import Arrow
from tests.conftest import (
    auslander_doc,
    golden_doc,
    grid_doc,
    materialize_presentation,
    shift_box,
    sixcycle_variant,
)


def _doc(vertices, arrows, relations, nilbound, rank=0):
    return {
        "field": {"kind": "prime", "p": 32003},
        "group": {"kind": "free-abelian", "rank": rank},
        "vertices": vertices,
        "arrows": arrows,
        "relations": relations,
        "nilbound": nilbound,
    }


def test_load_n32_valid(n32):
    assert len(n32.vertices) == 3
    assert n32.ell_star == 1
    assert n32.total_dimension() == 6


def _n32_with_zero_sum_relation() -> dict:
    # n32 with its relation a1*a2 written as a1*a2 - a1*a2, which is zero
    doc = golden_doc("n32")
    doc["relations"][0] = [
        {"coeff": "1", "path": ["a1", "a2"]},
        {"coeff": "-1", "path": ["a1", "a2"]},
    ]
    return doc


@pytest.mark.parametrize("zero_sum", [True, False], ids=["zero-sum", "dropped"])
def test_a_path_repeated_in_a_relation_sums_its_coefficients(zero_sum):
    # the zero-sum relation kills nothing, so n32 loads as without a1*a2
    doc = _n32_with_zero_sum_relation() if zero_sum else golden_doc("n32")
    if not zero_sum:
        del doc["relations"][0]
    pres = load_presentation(doc)
    assert (pres.total_dimension(), pres.ell_star) == (7, 2)


def test_a_zero_sum_relation_lets_its_path_act():
    pres = load_presentation(_n32_with_zero_sum_relation())
    one = Mat.from_rows(pres.field, [[1]])
    M = FDModule(pres, {"1": 1, "2": 1, "3": 1}, {"a1": one, "a2": one})
    assert not M.evaluate_word(("a1", "a2"), "1", "3").is_zero()
    validate_module(M)


def test_loop_presentation_valid(loop2):
    assert loop2.total_dimension() == 2  # e, x
    assert loop2.ell_star == 1


def test_loop_without_relations_rejected():
    doc = _doc(["v"], [{"id": "x", "src": "v", "tgt": "v", "weight": [1]}], [], 3, rank=1)
    with pytest.raises(NotLocallyBounded):
        load_presentation(doc)


def test_an_infinite_groebner_basis_is_refused_at_the_declared_nilbound(tmp_path, capsys):
    # aba - bab has an infinite Groebner basis: every degree from 5 on adds
    # a minimal tip ab^k ab, and the normal words never run out (7, 12, 20,
    # 33, 54, 88 in degrees 3 to 8), so only the declared nilbound stops
    # the load
    from quivercover.cli import main

    loops = [{"id": x, "src": "v", "tgt": "v"} for x in "ab"]
    relation = [{"coeff": "1", "path": list("aba")}, {"coeff": "-1", "path": list("bab")}]
    path = tmp_path / "aba.json"
    path.write_text(json.dumps(_doc(["v"], loops, [relation], 10)))
    assert main(["validate", "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "NotLocallyBounded: path a*a*a*a*a*a*a*a*a*a*a from v to v of length 11 does not "
        "reduce to zero; the path spaces are infinite-dimensional or the declared nilbound "
        "is understated\n"
    )


def _two_loops_rad2_zero(nilbound):
    loops = [{"id": x, "src": "v", "tgt": "v", "weight": [1]} for x in "ab"]
    return _doc(
        ["v"], loops, [[{"coeff": "1", "path": [x, y]}] for x in "ab" for y in "ab"], nilbound, rank=1
    )


@pytest.mark.parametrize(
    "doc, dimension, tight",
    [(grid_doc(8), (8 * 9 // 2) ** 2, 2 * (8 - 1)), (auslander_doc(12), comb(12 + 3, 4), 12 - 1)],
    ids=["8x8 grid", "Auslander kA12"],
)
def test_known_algebras_load_with_their_dimension_and_nilbound(doc, dimension, tight):
    pres = load_presentation(doc)
    assert (pres.total_dimension(), pres.ell_star) == (dimension, tight)


@pytest.mark.parametrize(
    "doc, bound", [(grid_doc(6), 225), (auslander_doc(8), 210)], ids=["6x6 grid", "Auslander kA8"]
)
def test_loading_reduces_one_row_per_relation_and_normal_path_into_it(doc, bound, monkeypatch):
    # at most one row u*r for each relation r and normal path u ending at
    # its source; the rows u*r*v over raw u and v numbered 5,199 and 4,802
    rows = []

    def counting_rref(m):
        rows.append(m.rows)
        return rref(m)

    monkeypatch.setattr(presentation, "rref", counting_rref)
    pres = load_presentation(doc)
    assert bound == sum(
        len(pres.path_basis(x, s)) for s in pres.vertices for _ in pres.relations_at(s) for x in pres.vertices
    )
    assert sum(rows) <= bound


@pytest.mark.parametrize(
    "build, nilbound",
    [(lambda ell: dict(golden_doc("n32"), nilbound=ell), 1000), (_two_loops_rad2_zero, 12)],
    ids=["n32", "two loops"],
)
def test_an_overstated_nilbound_loads_the_same_algebra(build, nilbound):
    # the paths stop at the first degree that lies in the ideal, so a
    # declared nilbound far past the tight one loads the same algebra
    loaded = load_presentation(build(nilbound))
    tight = load_presentation(build(loaded.ell_star + 1))
    assert (loaded.total_dimension(), loaded.ell_star) == (tight.total_dimension(), tight.ell_star)
    assert (loaded.nilbound, loaded.ell_star) == (nilbound, 1)


def test_inhomogeneous_weight_rejected():
    # two parallel length-2 paths with different total weights
    doc = _doc(
        ["1", "2", "3"],
        [
            {"id": "a", "src": "1", "tgt": "2", "weight": [1]},
            {"id": "b", "src": "2", "tgt": "3", "weight": [1]},
            {"id": "c", "src": "1", "tgt": "2", "weight": [0]},
            {"id": "d", "src": "2", "tgt": "3", "weight": [0]},
        ],
        [
            [
                {"coeff": "1", "path": ["a", "b"]},
                {"coeff": "-1", "path": ["c", "d"]},
            ]
        ],
        2,
        rank=1,
    )
    with pytest.raises(InhomogeneousRelation):
        load_presentation(doc)


def test_relation_of_length_one_rejected():
    doc = _doc(
        ["1", "2"],
        [{"id": "a", "src": "1", "tgt": "2", "weight": []}],
        [[{"coeff": "1", "path": ["a"]}]],
        1,
    )
    with pytest.raises(NotAdmissible):
        load_presentation(doc)


def test_mixed_length_relation_rejected():
    doc = _doc(
        ["1"],
        [{"id": "x", "src": "1", "tgt": "1", "weight": []}],
        [
            [
                {"coeff": "1", "path": ["x", "x"]},
                {"coeff": "-1", "path": ["x", "x", "x"]},
            ]
        ],
        3,
    )
    with pytest.raises(NotAdmissible):
        load_presentation(doc)


def test_schema_errors():
    with pytest.raises(SchemaError):
        load_presentation({"field": {"kind": "prime", "p": 32003}})
    with pytest.raises(SchemaError):
        load_presentation(_doc(["1", "1"], [], [], 0))
    with pytest.raises(SchemaError):
        load_presentation(
            _doc(["1"], [{"id": "a", "src": "1", "tgt": "missing", "weight": []}], [], 1)
        )


def test_path_basis_examples(n32, ka3):
    # linear A_3: one length-2 path from 1 to 3
    assert len(ka3.path_basis("1", "3")) == 1
    # N(3,2): every path from 1 to 3 has length >= 2, hence dies
    assert len(n32.path_basis("1", "3")) == 0
    # identity morphism at a cycle-free spot
    assert ka3.path_basis("2", "2") == ((),)


def test_square_free(n32, kronecker):
    assert n32.is_square_free()
    assert not kronecker.is_square_free()
    two_loops = _doc(
        ["v"],
        [
            {"id": "x", "src": "v", "tgt": "v", "weight": []},
            {"id": "y", "src": "v", "tgt": "v", "weight": []},
        ],
        [
            [{"coeff": "1", "path": [p, q]}]
            for p in ("x", "y")
            for q in ("x", "y")
        ],
        1,
    )
    assert not load_presentation(two_loops).is_square_free()


def test_smash_cover_n32_box2(n32):
    cov = smash_cover(n32)
    box = shift_box(n32.group, 2)
    assert len(box) == 5
    # every lift of an arrow is a generator, and arrows go (i, g) -> (i+1, g+1)
    for g in box:
        for v in n32.vertices:
            assert cov.has_object((v, g))
        for a in n32.arrows:
            assert cov.has_generator((a.name, g))
            src, tgt = cov.gen_src((a.name, g)), cov.gen_tgt((a.name, g))
            assert src == (a.src, g) and tgt[1] == (g[0] + 1,)
    assert cov.describe().endswith(", group Z^1)")


def test_smash_cover_trivial_group(ka2):
    cov = smash_cover(ka2)
    assert cov.fundamental_domain() == tuple((v, ()) for v in ka2.vertices)
    gens = [g for x in cov.fundamental_domain() for g in cov.generators_at_source(x)]
    assert len(gens) == len(ka2.arrows)
    assert cov.describe().endswith(", group Z^0)")


def test_smash_cover_loop_is_line(loop2):
    cov = smash_cover(loop2)
    # 7 shifts, one vertex: a line quiver with rad^2 = 0
    objects = [("v", g) for g in shift_box(loop2.group, 3)]
    assert len(objects) == 7
    gens = [g for x in objects for g in cov.generators_at_source(x) if cov.gen_tgt(g) in objects]
    assert len(gens) == 6
    # hom spaces: identity and single arrows only (rad^2 = 0)
    v0 = ("v", (0,))
    v1 = ("v", (1,))
    v2 = ("v", (2,))
    assert cov.hom_dim(v0, v0) == 1
    assert cov.hom_dim(v0, v1) == 1
    assert cov.hom_dim(v0, v2) == 0


def test_relation_lift_across_the_box_edge_is_checked(n32):
    # a module over the cover has to kill every relation lifted at its
    # support, here a1 a2 from (1, 0) to (3, 2), though the box of half-width 0
    # holds no arrow
    from quivercover import FDModule, RelationViolated, validate_module
    from quivercover.field import Mat

    cov = smash_cover(n32)
    one = Mat.identity(n32.field, 1)
    dims = {("1", (0,)): 1, ("2", (1,)): 1, ("3", (2,)): 1}
    chain = FDModule(cov, dims, {("a1", (0,)): one, ("a2", (1,)): one})
    with pytest.raises(RelationViolated) as err:
        validate_module(chain)
    assert err.value.vertex == ("1", (0,))
    validate_module(FDModule(cov, dims, {("a1", (0,)): one}))


def test_covering_hom_spaces_match_weight_components(n32, n32_cover):
    # C((x,g),(y,h)) = weight-(h-g) component of the base path space
    for x in n32.vertices:
        for y in n32.vertices:
            for p in n32.path_basis(x, y):
                w = n32.path_weight(p)
                assert p in n32_cover.hom_labels((x, (0,)), (y, w))


def test_orbit_disjoint_a2_swap():
    doc = _doc(
        ["1", "2", "1x", "2x"],
        [
            {"id": "a", "src": "1", "tgt": "2", "weight": []},
            {"id": "ax", "src": "1x", "tgt": "2x", "weight": []},
        ],
        [],
        1,
    )
    pres = load_presentation(doc)
    q = orbit_of_finite_action(
        pres,
        Group.cyclic(2),
        {"1": "1x", "1x": "1", "2": "2x", "2x": "2"},
        {"a": "ax", "ax": "a"},
    )
    assert len(q.vertices) == 2
    assert len(q.arrows) == 1
    assert q.total_dimension() == 3  # e_1, e_2, a


def test_orbit_six_cycle_rotation():
    pres = load_presentation(golden_doc("sixcycle"))
    action = golden_doc("sixcycle_action")
    q = orbit_of_finite_action(
        pres, Group.cyclic(2), action["vertex_map"], action["arrow_map"]
    )
    assert len(q.vertices) == 3
    assert len(q.arrows) == 3
    assert len(q.relations) == 3
    assert q.total_dimension() == 6  # same hom dimensions as N(3,2)
    # reconstruct: the smash cover over the cyclic group is the 6-cycle
    flat = materialize_presentation(smash_cover(q))[0]
    assert len(flat.vertices) == 6
    assert len(flat.arrows) == 6


def test_orbit_accepts_a_redundant_relation():
    # c1*c2*c3 lies in the ideal (c1*c2 does), and so does its image c4*c5*c6,
    # though no relation is listed from u4 to u1
    action = golden_doc("sixcycle_action")
    pres = load_presentation(sixcycle_variant(redundant=True))
    q = orbit_of_finite_action(pres, Group.cyclic(2), action["vertex_map"], action["arrow_map"])
    assert len(q.relations) == 4
    assert q.total_dimension() == 6
    assert len(list_indecomposables(q)) == 6


def test_orbit_refuses_an_action_off_the_ideal():
    # c4*c5 is a relation, but its image c1*c2 is not in the ideal
    action = golden_doc("sixcycle_action")
    pres = load_presentation(sixcycle_variant(redundant=False))
    with pytest.raises(SchemaError, match="does not permute"):
        orbit_of_finite_action(pres, Group.cyclic(2), action["vertex_map"], action["arrow_map"])


def test_orbit_two_cycle_to_loop():
    doc = _doc(
        ["1", "2"],
        [
            {"id": "a", "src": "1", "tgt": "2", "weight": []},
            {"id": "b", "src": "2", "tgt": "1", "weight": []},
        ],
        [
            [{"coeff": "1", "path": ["a", "b"]}],
            [{"coeff": "1", "path": ["b", "a"]}],
        ],
        1,
    )
    pres = load_presentation(doc)
    q = orbit_of_finite_action(
        pres, Group.cyclic(2), {"1": "2", "2": "1"}, {"a": "b", "b": "a"}
    )
    assert len(q.vertices) == 1
    assert len(q.arrows) == 1
    assert len(q.relations) == 1  # loop^2 = 0
    assert q.total_dimension() == 2


def test_orbit_not_free():
    doc = _doc(
        ["1", "2"],
        [{"id": "a", "src": "1", "tgt": "2", "weight": []}],
        [],
        1,
    )
    pres = load_presentation(doc)
    with pytest.raises(NotFreeAction):
        orbit_of_finite_action(
            pres, Group.cyclic(2), {"1": "1", "2": "2"}, {"a": "a"}
        )


def test_smash_then_orbit_round_trip():
    # cyclic-graded quotient -> full-box cover -> orbit quotient: same shape
    pres = load_presentation(golden_doc("sixcycle"))
    action = golden_doc("sixcycle_action")
    q = orbit_of_finite_action(
        pres, Group.cyclic(2), action["vertex_map"], action["arrow_map"]
    )
    cov = smash_cover(q)
    flat, vmap, amap = materialize_presentation(cov)
    q2 = orbit_of_finite_action(flat, Group.cyclic(2), vmap, amap)
    assert len(q2.vertices) == len(q.vertices)
    assert len(q2.arrows) == len(q.arrows)
    assert len(q2.relations) == len(q.relations)
    dims1 = sorted(len(q.path_basis(x, y)) for x in q.vertices for y in q.vertices)
    dims2 = sorted(len(q2.path_basis(x, y)) for x in q2.vertices for y in q2.vertices)
    assert dims1 == dims2


def _projectives_endo(n32):
    return EndoCarrier([projective_at(n32, x) for x in n32.vertices])


@pytest.mark.parametrize(
    "build", [lambda n32: n32, smash_cover, _projectives_endo], ids=["n32", "cover", "endo"]
)
def test_opposite_round_trip(n32, build):
    # one opposite per carrier, sharing the base's hom bases
    C = build(n32)
    op = C.opposite()
    assert op is C.opposite()
    assert op.opposite() is C
    domain = C.fundamental_domain()
    for x in domain:
        for y in domain:
            assert op.hom_labels(x, y) == C.hom_labels(y, x)


# ---------------------------------------------------------------------------
# path spaces against the raw-path reference


# The raw-path builder, the reference for the normal-path one: it lists every
# raw path and writes a row for each u*r*v over raw u and v, so its cost is
# exponential in the nilbound.
def _raw_path_build(self):
    ell = self.nilbound
    arrows_by_src = {}
    for a in self._arrow_list:
        arrows_by_src.setdefault(a.src, []).append(a)
    arrow_pos = {a.name: i for i, a in enumerate(self._arrow_list)}

    # raw[(x, y, d)] = ordered list of raw paths of length d, built one
    # degree ahead of the reduction.  Once a whole degree lies in the
    # ideal, so does every longer path (the ideal is two-sided), so the
    # loop stops there and an overstated nilbound costs nothing.
    raw: dict = {}
    for x in self._vertices:
        raw[(x, x, 0)] = [()]

    self._normal: dict = {}
    self._reduce: dict = {}
    survivors_past_bound = []
    for x in self._vertices:
        for y in self._vertices:
            self._normal[(x, y)] = []
            self._reduce[(x, y)] = {}
    for d in range(ell + 2):
        grown: dict = {}
        for (x, y, dd), paths in raw.items():
            if dd == d - 1:
                for p in paths:
                    for a in arrows_by_src.get(y, []):
                        grown.setdefault((x, a.tgt, d), []).append(p + (a.name,))
        for key, paths in grown.items():
            raw[key] = sorted(paths, key=lambda p: tuple(arrow_pos[n] for n in p))
        any_normal = False
        for x in self._vertices:
            for y in self._vertices:
                paths = raw.get((x, y, d), [])
                if not paths:
                    continue
                index = {p: i for i, p in enumerate(paths)}
                rows = []
                for s in self._vertices:
                    for _, t, rel in self.relations_at(s):
                        rlen = len(rel[0][1])
                        for du in range(d - rlen + 1):
                            dv = d - rlen - du
                            for u in raw.get((x, s, du), []):
                                for v in raw.get((t, y, dv), []):
                                    row = [0] * len(paths)
                                    for c, p in rel:
                                        row[index[u + p + v]] += c
                                    rows.append(row)
                if rows:
                    red, pivots = rref(Mat.from_rows(self.field, rows))
                    pivot_set = set(pivots)
                else:
                    red, pivots, pivot_set = None, (), set()
                normal_here = [p for i, p in enumerate(paths) if i not in pivot_set]
                any_normal = any_normal or bool(normal_here)
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
                            if j in pivot_set or red[i, j] == 0:
                                continue
                            combo[q] = self.field.neg_scalar(red[i, j])
                    self._reduce[(x, y)][paths[c]] = combo
        if not any_normal:
            break
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


class _RawPathPresentation(GradedQuiverPresentation):
    _build_path_spaces = _raw_path_build


def _raw_paths(arrows, src, length):
    paths = [((), src)]
    for _ in range(length):
        paths = [(p + (a.name,), a.tgt) for p, y in paths for a in arrows if a.src == y]
    return paths


@st.composite
def _small_presentations(draw):
    """(field, vertices, arrows, relations, nilbound) of a trivially graded
    presentation with at most 3 vertices and 4 arrows, relations of length
    2 or 3 and nilbound at most 5: the reference is exponential."""
    field = Field.prime(draw(st.sampled_from([2, 3, 5, 7])))
    vertices = [str(i) for i in range(draw(st.integers(1, 3)))]
    ends = st.sampled_from(vertices)
    arrows = [
        Arrow(f"a{k}", draw(ends), draw(ends), ()) for k in range(draw(st.integers(0, 4)))
    ]
    parallel = {}
    for length in (2, 3):
        for x in vertices:
            for p, y in _raw_paths(arrows, x, length):
                parallel.setdefault((x, y, length), []).append(p)
    # a relation of several terms where there are parallel paths, or else a
    # monomial one
    classes = [ps for ps in parallel.values() if len(ps) > 1] or list(parallel.values())
    relations = []
    for _ in range(draw(st.integers(0, 4)) if classes else 0):
        paths = draw(st.sampled_from(classes))
        chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3, unique=True))
        relations.append([(draw(st.integers(1, field.p - 1)), p) for p in chosen])
    # a truncated algebra, every path of length 3 zero, loads at nilbound 2
    truncated = draw(st.booleans())
    if truncated:
        relations += [[(1, p)] for (_, _, length), ps in parallel.items() if length == 3 for p in ps]
    nilbound = draw(st.integers(2 if truncated else 0, 5))
    # the reference lists the raw paths up to the first degree in the ideal
    assume(truncated or sum(len(_raw_paths(arrows, x, nilbound + 1)) for x in vertices) <= 256)
    return field, vertices, arrows, relations, nilbound


def _path_spaces(cls, field, vertices, arrows, relations, nilbound):
    """What a builder leaves: the normal paths of every pair of vertices,
    ell_star and the reduction of every normal path followed by an arrow,
    or the text of its NotLocallyBounded."""
    try:
        pres = cls(field, Group.trivial(), vertices, arrows, relations, nilbound)
    except NotLocallyBounded as exc:
        return str(exc)
    bases = {(x, y): pres.path_basis(x, y) for x in vertices for y in vertices}
    reductions = {
        (x, p, a.name): list(pres.compose_labels(x, y, a.tgt, p, (a.name,)).items())
        for (x, y), basis in bases.items()
        for p in basis
        for a in arrows
        if a.src == y
    }
    return bases, pres.ell_star, reductions


@given(_small_presentations())
@settings(max_examples=300, deadline=None)
def test_normal_path_builder_matches_the_raw_path_reference(args):
    assert _path_spaces(GradedQuiverPresentation, *args) == _path_spaces(_RawPathPresentation, *args)
