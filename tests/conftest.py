import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from quivercover import Group, load_presentation, smash_cover
from quivercover.field import Mat
from quivercover.homology import syzygy, transpose
from quivercover.modules import (
    ModMorphism,
    cokernel_module,
    dual_module,
    hom_basis,
    radical_inclusion,
)
from quivercover.presentation import Arrow, GradedQuiverPresentation

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")
# the shipped golden algebras, each also a fixture below
GOLDENS = ("ausl2", "ka2", "ka3", "loop2", "n32", "n32_z2", "sixcycle")


def golden_doc(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def sixcycle_variant(redundant: bool) -> dict:
    """The six-cycle with the redundant relation c1*c2*c3 added, or with its
    first relation c1*c2 dropped (and nilbound 3)."""
    doc = golden_doc("sixcycle")
    if redundant:
        doc["relations"].append([{"coeff": "1", "path": ["c1", "c2", "c3"]}])
    else:
        doc["relations"] = doc["relations"][1:]
        doc["nilbound"] = 3
    return doc


def all_elements(group) -> list:
    """Every element of a finite group: a cyclic one, or the rank-0 free
    abelian group."""
    if group.kind == "cyclic":
        return list(range(group.order))
    assert group.rank == 0, "an infinite group has no element listing"
    return [()]


def shift_box(group, halfwidth: int) -> tuple:
    """A reference window of shifts: the sorted box [-w..w]^rank of a free
    abelian group, or every element of a finite group."""
    if group.kind == "cyclic" or group.rank == 0:
        return tuple(all_elements(group))
    return tuple(itertools.product(range(-halfwidth, halfwidth + 1), repeat=group.rank))


def commutes(phi) -> bool:
    """phi commutes with the action of every generator: a module map."""
    M, N = phi.src, phi.tgt
    for y in M.support:
        for g in M.carrier.generators_at_target(y):
            x = M.carrier.gen_src(g)
            if not (phi.vertex(x) @ M.mat(g) - N.mat(g) @ phi.vertex(y)).is_zero():
                return False
    return True


def tau_minus(M):
    """The inverse AR translate Tr D M."""
    return transpose(dual_module(M))


def resolution_term(res, i):
    """P_i, the i-th term of a projective resolution."""
    res.extend_to(i)
    return res.covers[i].module


def cosyzygy(M, i=1):
    """The stable i-th cosyzygy (no injective summands): D of the syzygy of D M."""
    return dual_module(syzygy(dual_module(M), i))


def combine(basis: list, coeffs):
    """The combination of a nonempty hom basis with these coefficients."""
    out = None
    for b, c in zip(basis, coeffs):
        if c != 0:
            out = b.scale(c) if out is None else out + b.scale(c)
    return basis[0].scale(0) if out is None else out


def random_scalar(field, rng):
    """A scalar of field drawn from rng: a residue mod p, or an integer in
    [-9, 9] over Q."""
    if field.p is not None:
        return rng.randrange(field.p)
    return Fraction(rng.randrange(-9, 10))


def random_iso(M, N, tries=32):
    """An isomorphism M -> N among random combinations of a basis of
    Hom(M, N), drawn from a fixed seed, or None.  An oracle for two
    decomposable modules, where no single basis map need be an iso; None
    certifies nothing."""
    basis = hom_basis(M, N) if M.dims == N.dims else []
    rng = random.Random(0xC0FFEE)
    for _ in range(tries if basis else 0):
        phi = combine(basis, [random_scalar(M.carrier.field, rng) for _ in basis])
        if phi.is_iso():
            return phi
    return None


def summand_morphisms(S, mods, offsets) -> tuple:
    """(inclusions, projections) of the summands mods of the direct sum S,
    placed at the offsets direct_sum gave for them."""
    field = S.carrier.field
    inclusions, projections = [], []
    for M, off in zip(mods, offsets):
        inc = {x: Mat.from_blocks(field, S.dim(x), M.dim(x), [(o, 0, Mat.identity(field, M.dim(x)))])
               for x, o in off.items()}
        inclusions.append(ModMorphism(M, S, inc))
        projections.append(ModMorphism(S, M, {x: m.transpose() for x, m in inc.items()}))
    return inclusions, projections


def top_module(M) -> tuple:
    """(top M, projection M -> top M): the cokernel of rad M -> M."""
    return cokernel_module(radical_inclusion(M)[1])


def materialize_presentation(cover) -> tuple:
    """The cover of a finitely graded presentation flattened into a
    trivially graded presentation, with the shift action of a generator of
    the grading group: (presentation, vertex_map, arrow_map)."""
    group = cover.group
    pres = cover.base_presentation
    shifts = all_elements(group)
    objects = [(v, g) for g in shifts for v in pres.vertices]
    generators = [(a.name, g) for g in shifts for a in pres.arrows]

    def vname(x):
        v, g = x
        return f"{v}@{group.element_to_json(g)}"

    def aname(gen):
        name, g = gen
        return f"{name}@{group.element_to_json(g)}"

    vertices = [vname(x) for x in objects]
    arrows = [
        Arrow(aname(gen), vname(cover.gen_src(gen)), vname(cover.gen_tgt(gen)), ())
        for gen in generators
    ]
    relations = [
        [(c, tuple(aname(gen) for gen in cover._lift_path(path, g))) for c, path in rel]
        for rel in pres.relations
        for g in shifts
    ]
    flat = GradedQuiverPresentation(
        pres.field, Group.trivial(), vertices, arrows, relations, pres.nilbound
    )
    shift = 1 if group.kind == "cyclic" else group.identity()
    vertex_map = {vname(x): vname(cover.twist_object(shift, x)) for x in objects}
    arrow_map = {aname(gen): aname(cover.twist_generator(shift, gen)) for gen in generators}
    return flat, vertex_map, arrow_map


@pytest.fixture(scope="session")
def n32():
    """Cyclic 3-vertex Nakayama, rad^2 = 0, with its Z-grading."""
    return load_presentation(golden_doc("n32"))


@pytest.fixture(scope="session")
def loop2():
    """k[x]/(x^2) with its Z-grading (cover = infinite line, rad^2 = 0)."""
    return load_presentation(golden_doc("loop2"))


@pytest.fixture(scope="session")
def n32_z2():
    """N(3,2) graded by Z/2: the quotient of the six-cycle by its rotation."""
    return load_presentation(golden_doc("n32_z2"))


@pytest.fixture(scope="session")
def ka2():
    return load_presentation(golden_doc("ka2"))


@pytest.fixture(scope="session")
def ka3():
    return load_presentation(golden_doc("ka3"))


@pytest.fixture(scope="session")
def ausl2():
    """The Auslander algebra of k[x]/(x^2) (quiver 1 <-> 2, one composite zero)."""
    return load_presentation(golden_doc("ausl2"))


@pytest.fixture(scope="session")
def sixcycle():
    """The self-injective Nakayama algebra N(6,2) with its Z-grading."""
    return load_presentation(golden_doc("sixcycle"))


@pytest.fixture(scope="session")
def semisimple():
    return load_presentation(
        {
            "field": {"kind": "prime", "p": 32003},
            "group": {"kind": "free-abelian", "rank": 0},
            "vertices": ["1", "2"],
            "arrows": [],
            "relations": [],
            "nilbound": 0,
        }
    )


@pytest.fixture(scope="session")
def kronecker():
    return load_presentation(
        {
            "field": {"kind": "prime", "p": 32003},
            "group": {"kind": "free-abelian", "rank": 0},
            "vertices": ["1", "2"],
            "arrows": [
                {"id": "a", "src": "1", "tgt": "2", "weight": []},
                {"id": "b", "src": "1", "tgt": "2", "weight": []},
            ],
            "relations": [],
            "nilbound": 1,
        }
    )


@pytest.fixture(scope="session")
def n32_cover(n32):
    return smash_cover(n32)


@pytest.fixture(scope="session")
def loop2_cover(loop2):
    return smash_cover(loop2)


def _at(i, j) -> str:
    return f"{i},{j}"


def _trivially_graded(vertices, arrows, relations, nilbound) -> dict:
    return {
        "field": {"kind": "prime", "p": 32003},
        "group": {"kind": "free-abelian", "rank": 0},
        "vertices": vertices,
        "arrows": [{"id": name, "src": s, "tgt": t, "weight": []} for name, s, t in arrows],
        "relations": [
            [{"coeff": c, "path": path} for c, path in rel] for rel in relations
        ],
        "nilbound": nilbound,
    }


def grid_doc(n: int) -> dict:
    """The n x n commutative grid: the incidence algebra of a product of two
    n-chains, of total dimension (n(n+1)/2)^2 and tight nilbound 2(n - 1)."""
    arrows = [(f"r{i},{j}", _at(i, j), _at(i, j + 1)) for i in range(n) for j in range(n - 1)]
    arrows += [(f"d{i},{j}", _at(i, j), _at(i + 1, j)) for i in range(n - 1) for j in range(n)]
    relations = [
        [("1", [f"r{i},{j}", f"d{i},{j + 1}"]), ("-1", [f"d{i},{j}", f"r{i + 1},{j}"])]
        for i in range(n - 1)
        for j in range(n - 1)
    ]
    vertices = [_at(i, j) for i in range(n) for j in range(n)]
    return _trivially_graded(vertices, arrows, relations, 2 * (n - 1))


def auslander_doc(m: int) -> dict:
    """The Auslander algebra of linear kA_m: its AR quiver, the triangle of
    intervals [i, j] with arrows [i, j] -> [i, j + 1] and [i, j] -> [i + 1, j],
    bound by the mesh relations.  Total dimension C(m + 3, 4), tight
    nilbound m - 1."""
    arrows = [(f"a{i},{j}", _at(i, j), _at(i, j + 1)) for j in range(1, m) for i in range(1, j + 1)]
    arrows += [(f"b{i},{j}", _at(i, j), _at(i + 1, j)) for j in range(2, m + 1) for i in range(1, j)]
    relations = []
    for j in range(1, m):
        for i in range(1, j + 1):
            rel = [("1", [f"a{i},{j}", f"b{i},{j + 1}"])]
            if i < j:  # the mesh through [i + 1, j]; at i = j it is a zero relation
                rel.append(("-1", [f"b{i},{j}", f"a{i + 1},{j}"]))
            relations.append(rel)
    vertices = [_at(i, j) for j in range(1, m + 1) for i in range(1, j + 1)]
    return _trivially_graded(vertices, arrows, relations, m - 1)
