"""The knit against the reference knit that takes every step, and the
hereditary knit against the positive roots and the Coxeter matrix.

On a carrier with relations `knitting._knit` takes the six steps of
`tests/reference_knit.py` and drops a result isomorphic to a class before
decomposing it; the reference decomposes every result.  The two must give
the same classes, as modules, in the same order, and stop with the same
CapExceeded.  On a hereditary carrier the knit takes τ⁻ alone and meets the
classes in another order, so there the two must give the same isomorphism
classes, one each, and the knit is checked against oracles that need no
knit: one class per positive root (Gabriel), and dim τM = dim M·Φ for the
Coxeter matrix Φ of the Cartan matrix.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

from bench.checks import positive_roots
from quivercover import load_presentation, smash_cover
from quivercover.cli import main
from quivercover.errors import CapExceeded
from quivercover.homology import is_projective_module, tau
from quivercover.knitting import _hereditary, _knit
from quivercover.modules import dual_module, find_iso, simple_at
from tests.conftest import GOLDENS, auslander_doc, golden_doc, tau_minus
from tests.reference_knit import reference_knit
from tests.test_square import FIELDS, square_doc

# Bourbaki labels, every edge from the smaller label to the larger
E6 = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)]
DYNKIN = {"E6": (E6, 4), "E7": (E6 + [(6, 7)], 5), "D8": ([(i, i + 1) for i in range(1, 7)] + [(6, 8)], 6)}


def dynkin_doc(name: str, field: dict) -> dict:
    """The path algebra of the Dynkin quiver, Z-graded with every arrow of weight 1."""
    return path_algebra_doc(*DYNKIN[name], field)


def path_algebra_doc(edges, nilbound: int, field: dict) -> dict:
    """The path algebra of the quiver with these edges, each from its first
    vertex to its second, Z-graded with every arrow of weight 1."""
    return {
        "field": field,
        "group": {"kind": "free-abelian", "rank": 1},
        "vertices": sorted({str(v) for edge in edges for v in edge}, key=int),
        "arrows": [{"id": f"a{a}_{b}", "src": str(a), "tgt": str(b), "weight": [1]} for a, b in edges],
        "relations": [],
        "nilbound": nilbound,
    }


def assert_same_pool(carrier):
    got, ref = _knit(carrier, 48, 512), reference_knit(carrier)
    assert all(M.carrier is carrier for M in got)
    assert [(M.dims, M.gen_mats) for M in got] == [(M.dims, M.gen_mats) for M in ref]


def assert_same_classes(carrier, dimcap=48):
    """Each class of the knit is isomorphic to exactly one of the reference
    knit, and the counts agree.  Both knits centre their classes, so two
    classes of one twist orbit have one support, and find_iso is exact on
    indecomposables."""
    got, ref = _knit(carrier, dimcap, 512), reference_knit(carrier, dimcap)
    assert all(M.carrier is carrier for M in got)
    assert len(got) == len(ref)
    matches = [[j for j, R in enumerate(ref) if find_iso(M, R) is not None] for M in got]
    assert all(len(js) == 1 for js in matches)
    assert sorted(js[0] for js in matches) == list(range(len(ref)))
    return got


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("name", GOLDENS)
def test_knit_matches_the_reference_on_every_golden(name, cover, request):
    pres = request.getfixturevalue(name)
    assert_same_pool(smash_cover(pres) if cover else pres)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_knit_matches_the_reference_on_dynkin_quivers(name, field):
    # hereditary: the knit takes tau^- alone
    assert_same_classes(load_presentation(dynkin_doc(name, FIELDS[field])))


# (edges, nilbound, classes); None for a representation-infinite quiver,
# whose knit the dimcap stops.  A_6 and D_n have as many classes as
# positive roots (Gabriel): 21, n(n - 1).
KNOWN_ANSWERS = {
    "A6 linear": ([(i, i + 1) for i in range(1, 6)], 5, 21),
    "A6 alternating": ([(1, 2), (3, 2), (3, 4), (5, 4), (5, 6)], 1, 21),
    "D5": ([(1, 2), (2, 3), (3, 4), (3, 5)], 3, 20),
    "D6": ([(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)], 4, 30),
    "A3 extended": ([(1, 2), (2, 3), (3, 4), (1, 4)], 3, None),
    "D4 extended": ([(1, 5), (2, 5), (3, 5), (4, 5)], 1, None),
}


# the message of the knit's CapExceeded at dimcap 24 on a
# representation-infinite quiver; the six-step reference meets dimension 25
# first on both
STOPPED_AT = {
    "A3 extended": "an indecomposable of dimension 25 exceeds --dimcap 24",
    "D4 extended": "an indecomposable of dimension 29 exceeds --dimcap 24",
}


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("name", sorted(KNOWN_ANSWERS))
def test_a_hereditary_knit_finds_every_class_or_stops_at_the_dimcap(name, cover):
    # the tau^- closure ends exactly on the representation-finite quivers,
    # and there holds one class per positive root
    edges, nilbound, classes = KNOWN_ANSWERS[name]
    pres = load_presentation(path_algebra_doc(edges, nilbound, FIELDS["F_32003"]))
    carrier = smash_cover(pres) if cover else pres
    assert _hereditary(carrier, [simple_at(carrier, x) for x in carrier.fundamental_domain()])
    if classes is not None:
        assert len(assert_same_classes(carrier, dimcap=24)) == classes
        return
    with pytest.raises(CapExceeded) as ref:
        reference_knit(carrier, dimcap=24)
    with pytest.raises(CapExceeded) as got:
        _knit(carrier, 24, 512)
    assert str(ref.value) == "an indecomposable of dimension 25 exceeds --dimcap 24"
    assert str(got.value) == STOPPED_AT[name]


# (edges, nilbound) of the representation-finite hereditary test inputs
HEREDITARY = {
    "ka2": ([(1, 2)], 1),
    "ka3": ([(1, 2), (2, 3)], 2),
    **{name: KNOWN_ANSWERS[name][:2] for name in ("A6 linear", "A6 alternating", "D5", "D6")},
    **DYNKIN,
}


def _inverse(A: list) -> list:
    """The inverse of an invertible square matrix of Fractions, by
    Gauss-Jordan elimination."""
    n = len(A)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def _product(A: list, B: list) -> list:
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def coxeter_matrices(pres, n: int) -> tuple:
    """(Φ, Φ⁻¹) for the Cartan matrix C[x][y] = dim C(y, x) on vertices
    1..n: Φ = -C⁻¹Cᵀ, so dim τM = dim M·Φ for M indecomposable and not
    projective, as row vectors."""
    C = [[Fraction(pres.hom_dim(str(y), str(x))) for y in range(1, n + 1)] for x in range(1, n + 1)]
    Ct = [list(col) for col in zip(*C)]
    Ci, Cti = _inverse(C), _inverse(Ct)
    phi = [[-x for x in row] for row in _product(Ci, Ct)]
    phi_inv = [[-x for x in row] for row in _product(Cti, C)]
    return phi, phi_inv


def pushed_down_dims(M, n: int) -> tuple:
    """dim M on vertices 1..n, summed over the shifts on a covering carrier."""
    dims = Counter()
    for x, d in M.dims.items():
        dims[x[0] if M.carrier.is_cover else x] += d
    return tuple(dims[str(v)] for v in range(1, n + 1))


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("name", sorted(HEREDITARY))
def test_a_hereditary_knit_meets_the_positive_roots_and_the_coxeter_matrix(name, cover, monkeypatch):
    from quivercover import knitting

    edges, nilbound = HEREDITARY[name]
    n = max(max(edge) for edge in edges)
    pres = load_presentation(path_algebra_doc(edges, nilbound, FIELDS["F_32003"]))
    carrier = smash_cover(pres) if cover else pres
    calls = Counter()
    for step in ("radical_inclusion", "socle_inclusion", "syzygy", "transpose"):
        real = getattr(knitting, step)
        monkeypatch.setattr(knitting, step, lambda M, real=real, step=step: calls.update([step]) or real(M))
    classes = _knit(carrier, 48, 512)
    monkeypatch.undo()
    # one transpose per class, tau^- of it, and no other step
    assert calls == {"transpose": len(classes)}
    vectors = [pushed_down_dims(M, n) for M in classes]
    assert sorted(vectors) == sorted(positive_roots(edges, n))
    phi, phi_inv = coxeter_matrices(pres, n)
    for M, dim in zip(classes, vectors):
        if is_projective_module(M):
            assert tau(M).is_zero()
        else:
            assert pushed_down_dims(tau(M), n) == tuple(_product([dim], phi)[0])
        if is_projective_module(dual_module(M)):
            assert tau_minus(M).is_zero()
        else:
            assert pushed_down_dims(tau_minus(M), n) == tuple(_product([dim], phi_inv)[0])


@pytest.mark.parametrize("m", [3, 4])
def test_knit_matches_the_reference_on_auslander_algebras(m):
    # global dimension 2: the syzygies are needed
    assert_same_pool(load_presentation(auslander_doc(m)))


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("field", sorted(FIELDS))
def test_knit_matches_the_reference_on_the_square(field, cover):
    pres = load_presentation(square_doc(FIELDS[field]))
    assert_same_pool(smash_cover(pres) if cover else pres)


def test_knit_stops_where_the_reference_stops(kronecker):
    with pytest.raises(CapExceeded) as ref:
        reference_knit(kronecker, dimcap=12)
    with pytest.raises(CapExceeded) as got:
        _knit(load_presentation(kronecker.to_json_dict()), 12, 512)
    assert str(got.value) == str(ref.value) == "an indecomposable of dimension 13 exceeds --dimcap 12"


@pytest.mark.parametrize(
    "name, hereditary",
    [("ka2", True), ("ka3", True), ("kronecker", True),
     ("n32", False), ("loop2", False), ("ausl2", False), ("sixcycle", False)],
)
def test_global_dimension_certificate(name, hereditary, request):
    # a fresh carrier, so nothing is memoised on it yet
    carrier = load_presentation(request.getfixturevalue(name).to_json_dict())
    simples = [simple_at(carrier, x) for x in carrier.fundamental_domain()]
    assert _hereditary(carrier, simples) is hereditary


def test_e6_is_hereditary_and_its_knit_takes_no_syzygy(monkeypatch):
    from quivercover import knitting

    e6 = load_presentation(dynkin_doc("E6", FIELDS["F_32003"]))
    assert _hereditary(e6, [simple_at(e6, x) for x in e6.fundamental_domain()])
    calls = {"radical_inclusion": 0, "socle_inclusion": 0, "syzygy": 0, "transpose": 0}
    for name in calls:
        real = getattr(knitting, name)

        def counting(M, real=real, name=name):
            calls[name] += 1
            return real(M)

        monkeypatch.setattr(knitting, name, counting)
    assert len(_knit(e6, 48, 512)) == 36
    # one transpose per class, tau^- of it; 51 while the knit also took tau
    # and skipped the translate back to a class that came whole from the
    # other, 55 while it also took rad M and M / soc M
    assert calls == {"radical_inclusion": 0, "socle_inclusion": 0, "syzygy": 0, "transpose": 36}


def test_the_e6_knit_builds_no_endomorphism_algebra(monkeypatch):
    # every seed is marked indecomposable, the simples by their dimension,
    # and tau^- of a marked module is marked, so decompose never builds End
    from quivercover import modules

    built = []
    real = modules._EndAlgebra
    monkeypatch.setattr(modules, "_EndAlgebra", lambda M: built.append(M) or real(M))
    e6 = load_presentation(dynkin_doc("E6", FIELDS["F_32003"]))
    assert len(_knit(e6, 48, 512)) == 36
    assert built == []


def test_a_knit_that_stops_is_kept_with_its_error(kronecker, monkeypatch):
    from quivercover import knitting

    knits = []
    real = knitting._knit
    monkeypatch.setattr(knitting, "_knit", lambda *args: knits.append(args) or real(*args))
    carrier = load_presentation(kronecker.to_json_dict())
    notes = []
    for _ in range(2):
        with pytest.raises(CapExceeded) as err:
            knitting.list_indecomposables(carrier, dimcap=12)
        notes.append(str(err.value))
    assert len(knits) == 1
    assert notes == ["an indecomposable of dimension 13 exceeds --dimcap 12"] * 2


# The note of a claim whose module over F_2 has End(M) of dimension 2 past a
# listing bound lowered to 1.
LISTING_BOUND_NOTE = (
    "DecompositionInconclusive: characteristic 2 too small for the trace-form radical "
    "(total dimension 2), and End(M) has 2^2 elements, past the listing bound of 1"
)


def test_an_inconclusive_knit_is_kept_with_its_error(capsys, tmp_path, monkeypatch):
    # over F_2, with End(M) of every module past a lowered listing bound,
    # decompose can neither split nor certify a module that some claims of
    # loop2's suite meet, so each of them reports the same error; each of
    # the suite's three pools, the cover's, the base's and an endomorphism
    # category's, is knitted once.  The base's knit succeeds since a
    # translate of a class is marked indecomposable; before, it failed, and
    # no claim reached the third pool
    from quivercover import knitting, modules

    knits = []
    real = knitting._knit
    monkeypatch.setattr(knitting, "_knit", lambda *args: knits.append(args) or real(*args))
    monkeypatch.setattr(modules, "_LISTED", 1)
    doc = dict(golden_doc("loop2"), field={"kind": "prime", "p": 2})
    path = tmp_path / "loop2.json"
    path.write_text(json.dumps(doc))
    assert main(["suite", "--n", "1", "--input", str(path)]) == 3
    notes = {note for r in json.loads(capsys.readouterr().out) for note in r["notes"]}
    assert {note for note in notes if note.startswith("DecompositionInconclusive")} == {LISTING_BOUND_NOTE}
    assert len(knits) == len({(id(carrier), *caps) for carrier, *caps in knits}) == 3


def test_a_knit_that_cannot_decompose_is_kept_with_its_error(n32, monkeypatch):
    # no golden knit is inconclusive over F_2, F_3 or F_5 since a translate
    # of a class is marked indecomposable and End(M) is listed where p <=
    # dim M, so the error is forced
    from quivercover import knitting
    from quivercover.errors import DecompositionInconclusive

    def refuse(M):
        raise DecompositionInconclusive("refused")

    knits = []
    real = knitting._knit
    monkeypatch.setattr(knitting, "_knit", lambda *args: knits.append(args) or real(*args))
    monkeypatch.setattr(knitting, "decompose", refuse)
    carrier = load_presentation(n32.to_json_dict())
    for _ in range(2):
        with pytest.raises(DecompositionInconclusive, match="refused"):
            knitting.list_indecomposables(carrier)
    assert len(knits) == 1


def test_an_inconclusive_decomposition_is_kept_on_its_module(capsys, tmp_path, monkeypatch):
    # with End(M) of every module past a lowered listing bound, the same
    # run fails on two modules: a push-down of U that Main1, Main2 and
    # ModPushdown each decompose, and a module that the knit and the
    # translate closure meet; each is tried once, where each was tried three
    # times while decompose kept only its results
    from quivercover import modules

    splits = []
    real = modules._find_split
    monkeypatch.setattr(modules, "_find_split", lambda M, *args: splits.append(M) or real(M, *args))
    monkeypatch.setattr(modules, "_LISTED", 1)
    doc = dict(golden_doc("loop2"), field={"kind": "prime", "p": 2})
    path = tmp_path / "loop2.json"
    path.write_text(json.dumps(doc))
    assert main(["suite", "--n", "1", "--input", str(path)]) == 3
    notes = {note for r in json.loads(capsys.readouterr().out) for note in r["notes"]}
    assert LISTING_BOUND_NOTE in notes
    assert len(splits) == len({id(M) for M in splits}) == 2


def test_the_translate_closure_is_kept_per_carrier(kronecker, ka3, monkeypatch):
    from quivercover import precluster

    closures = []
    real = precluster.close
    monkeypatch.setattr(precluster, "close", lambda *args, **kw: closures.append(1) or real(*args, **kw))
    stopped = load_presentation(kronecker.to_json_dict())
    for _ in range(2):
        with pytest.raises(CapExceeded):
            precluster._translate_closure(stopped, "both", 1, 32, dimcap=12)
    carrier = load_presentation(ka3.to_json_dict())
    first, closed = precluster._translate_closure(carrier, "both", 1, 32)
    first.pop()
    again, _ = precluster._translate_closure(carrier, "both", 1, 32)
    assert closures == [1, 1]
    assert closed and len(again) == len(first) + 1
    # P_n and I_n are kept apart from it, each built once
    for _ in range(2):
        Pn, _ = precluster.compute_Pn(carrier, 1)
        In, _ = precluster.compute_In(carrier, 1)
    assert closures == [1, 1, 1, 1]
    assert Pn is not precluster.compute_Pn(carrier, 1)[0]
