"""A non-monomial presentation: the anti-commutative square kQ/(ab + cd).

Every golden algebra is monomial, so no path basis there involves a choice.
Here the one relation leaves one of the two paths from 1 to 4 as the basis
of C(1, 4).  With the arrows listed as a, d, c, b, the base keeps c.d while
a presentation of the opposite quiver would keep b.a, so this is the input
on which C^op must reuse the base's basis rather than build its own.  The
square is representation-finite with 11 indecomposables.
"""

import json

import pytest

from quivercover import (
    is_indecomposable,
    is_isomorphic,
    is_projective_module,
    list_indecomposables,
    load_presentation,
    module_from_json,
    smash_cover,
    tau,
    validate_module,
)
from quivercover.cli import main
from tests.conftest import tau_minus

FIELDS = {"F_32003": {"kind": "prime", "p": 32003}, "Q": {"kind": "rationals"}}
ARROWS = (("a", "1", "2"), ("d", "3", "4"), ("c", "1", "3"), ("b", "2", "4"))


def square_doc(field: dict, reverse: bool = False) -> dict:
    """The Z-graded square, every arrow of weight 1; `reverse` gives the
    presentation of the opposite quiver, arrows in the same order."""
    arrows = [
        {"id": name, "src": t if reverse else s, "tgt": s if reverse else t, "weight": [1]}
        for name, s, t in ARROWS
    ]
    paths = (["b", "a"], ["d", "c"]) if reverse else (["a", "b"], ["c", "d"])
    return {
        "field": field,
        "group": {"kind": "free-abelian", "rank": 1},
        "vertices": ["1", "2", "3", "4"],
        "arrows": arrows,
        "relations": [[{"coeff": 1, "path": p} for p in paths]],
        "nilbound": 2,
    }


@pytest.fixture(scope="module", params=sorted(FIELDS))
def square(request, tmp_path_factory):
    """(presentation, path of its document) over each field."""
    doc = square_doc(FIELDS[request.param])
    path = tmp_path_factory.mktemp("square") / "square.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_presentation(doc), str(path)


def test_square_opposite_keeps_the_base_basis(square):
    pres, _ = square
    rebuilt = load_presentation(square_doc(FIELDS["Q"], reverse=True))
    assert pres.hom_labels("1", "4") == (("c", "d"),)
    assert rebuilt.hom_labels("4", "1") == (("b", "a"),)
    assert pres.opposite().hom_labels("4", "1") == (("c", "d"),)


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
def test_square_indecs_lists_eleven_valid_classes(square, cover, capsys):
    pres, path = square
    code = main(["indecs", "--input", path] + (["--cover"] if cover else []))
    listing = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(listing) == 11
    carrier = smash_cover(pres) if cover else pres
    for doc in listing:
        validate_module(module_from_json(carrier, doc))


@pytest.mark.parametrize("cover", [False, True], ids=["base", "cover"])
def test_square_tau_minus_inverts_tau(square, cover):
    pres, _ = square
    carrier = smash_cover(pres) if cover else pres
    classes = list_indecomposables(carrier)
    assert len(classes) == 11
    for M in classes:
        if is_projective_module(M):
            continue
        T = tau(M)
        assert is_indecomposable(T)
        assert is_isomorphic(tau_minus(T), M)


@pytest.mark.parametrize("claim", ["Corres", "DILemma", "TiltingPushdown"])
def test_square_claims_pass(square, claim, capsys):
    _, path = square
    code = main(["check", "--input", path, "--claim", claim, "--n", "1"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["claim"], report["pass"]) == (0, claim, True)
