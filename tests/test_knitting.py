"""The knit against the reference knit that takes every step.

`knitting._knit` leaves out the steps whose results its pool already
determines, and drops a result isomorphic to a class before decomposing it;
`tests/reference_knit.py` does neither.  The two must give the same classes,
as modules, in the same order, and stop with the same CapExceeded.
"""

import pytest

from quivercover import load_presentation, smash_cover
from quivercover.errors import CapExceeded
from quivercover.knitting import _hereditary, _knit
from quivercover.modules import simple_at
from tests.conftest import GOLDENS, auslander_doc
from tests.reference_knit import reference_knit
from tests.test_square import FIELDS, square_doc

# Bourbaki labels, every edge from the smaller label to the larger
E6 = [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)]
DYNKIN = {"E6": (E6, 4), "E7": (E6 + [(6, 7)], 5), "D8": ([(i, i + 1) for i in range(1, 7)] + [(6, 8)], 6)}


def dynkin_doc(name: str, field: dict) -> dict:
    """The path algebra of the Dynkin quiver, Z-graded with every arrow of weight 1."""
    edges, nilbound = DYNKIN[name]
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


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
@pytest.mark.parametrize("name", GOLDENS)
def test_knit_matches_the_reference_on_every_golden(name, cover, request):
    pres = request.getfixturevalue(name)
    assert_same_pool(smash_cover(pres) if cover else pres)


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_knit_matches_the_reference_on_dynkin_quivers(name, field):
    assert_same_pool(load_presentation(dynkin_doc(name, FIELDS[field])))


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
    calls = {"syzygy": 0, "transpose": 0}
    for name in calls:
        real = getattr(knitting, name)

        def counting(M, real=real, name=name):
            calls[name] += 1
            return real(M)

        monkeypatch.setattr(knitting, name, counting)
    assert len(_knit(e6, 48, 512)) == 36
    # every class took tau and tau^- (72 transposes) before a class that
    # came whole from one translate skipped the other
    assert calls == {"syzygy": 0, "transpose": 55}


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
