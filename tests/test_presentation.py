"""Presentations: validation, path spaces, coverings, orbit quotients."""

import pytest

from quivercover import (
    Group,
    InhomogeneousRelation,
    NotAdmissible,
    NotFreeAction,
    NotLocallyBounded,
    SchemaError,
    load_presentation,
    orbit_of_finite_action,
    smash_cover,
)
from quivercover.cover import materialize_presentation
from tests.conftest import golden_doc


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


def test_loop_presentation_valid(loop2):
    assert loop2.total_dimension() == 2  # e, x
    assert loop2.ell_star == 1


def test_loop_without_relations_rejected():
    doc = _doc(["v"], [{"id": "x", "src": "v", "tgt": "v", "weight": [1]}], [], 3, rank=1)
    with pytest.raises(NotLocallyBounded):
        load_presentation(doc)


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
    box = n32.group.box(2)
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
    objects = [("v", g) for g in loop2.group.box(3)]
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
    # support, here a1 a2 from (1, 0) to (3, 2), though box(0) holds no arrow
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


def test_opposite_round_trip(n32):
    op = n32.opposite()
    assert op.opposite() is n32
    for x in n32.vertices:
        for y in n32.vertices:
            assert len(op.path_basis(x, y)) == len(n32.path_basis(y, x))
