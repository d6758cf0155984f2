"""Work shared within one command: one cover per presentation, one
indecomposable pool per (carrier, dimcap, class_cap, seed), and one
representable per (carrier, object)."""

import json
import os

import pytest

from quivercover import (
    SchemaError,
    injective_at,
    list_indecomposables,
    load_presentation,
    module_from_json,
    projective_at,
    smash_cover,
)
from quivercover import knitting
from quivercover.cli import main
from quivercover.modules import iso_seed
from tests.conftest import golden_doc

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")


def fresh(name):
    """A presentation no other test has memoised anything on."""
    return load_presentation(golden_doc(name))


@pytest.fixture
def knits(monkeypatch):
    """Every inner knit as (carrier, dimcap, class_cap, seed)."""
    calls = []
    original = knitting._knit

    def counting(carrier, dimcap, class_cap):
        calls.append((carrier, dimcap, class_cap, iso_seed.get()))
        return original(carrier, dimcap, class_cap)

    monkeypatch.setattr(knitting, "_knit", counting)
    return calls


def test_suite_knits_each_pool_once(capsys, knits):
    code = main(
        ["suite", "--input", os.path.join(GOLDEN, "loop2.json"), "--n", "1"]
    )
    capsys.readouterr()
    assert code in (0, 1, 3)
    carriers = {id(c) for c, *_ in knits}
    assert len(carriers) >= 2  # the cover and the base algebra at least
    assert len(knits) == len(set(knits))


def test_another_seed_knits_again(knits):
    pres = fresh("loop2")
    cover = smash_cover(pres)
    first = list_indecomposables(cover)
    list_indecomposables(cover)
    assert len(knits) == 1
    token = iso_seed.set(7)
    try:
        again = list_indecomposables(cover)
    finally:
        iso_seed.reset(token)
    assert len(knits) == 2
    assert len(again) == len(first)
    list_indecomposables(cover, dimcap=4)
    assert len(knits) == 3


def test_pool_list_is_fresh_but_its_modules_are_shared():
    pres = fresh("n32")
    first = list_indecomposables(pres)
    kept = list(first)
    first.reverse()
    first.append(first[0])
    second = list_indecomposables(pres)
    assert second is not first
    assert len(second) == len(kept)
    assert all(a is b for a, b in zip(second, kept))


def test_representables_are_built_once():
    pres = fresh("n32")
    cover = smash_cover(pres)
    for carrier, x in ((pres, "1"), (cover, ("1", (0,)))):
        assert projective_at(carrier, x) is projective_at(carrier, x)
        assert injective_at(carrier, x) is injective_at(carrier, x)
    # a projective away from the fundamental domain is built once as well
    edge = projective_at(cover, ("1", (-4,)))
    assert edge is projective_at(cover, ("1", (-4,)))
    assert edge.dims == {("1", (-4,)): 1, ("3", (-5,)): 1}


def test_one_cover_per_presentation():
    pres = fresh("n32")
    cover = smash_cover(pres)
    assert cover is smash_cover(pres)
    assert cover is not smash_cover(fresh("n32"))
    assert cover.opposite().opposite() is cover


def test_module_from_json_rejects_unknown_arrows():
    pres = fresh("n32")
    cover = smash_cover(pres)
    ok = {"dims": {"1@0": 1, "2@1": 1}, "arrowmaps": {"a1@0": [[1]]}}
    assert module_from_json(cover, ok).dims == {("1", (0,)): 1, ("2", (1,)): 1}
    # a lift far from the identity shift is an arrow of the cover
    far = {"dims": {"1@100": 1, "2@101": 1}, "arrowmaps": {"a1@100": [[1]]}}
    assert module_from_json(cover, far).dims == {("1", (100,)): 1, ("2", (101,)): 1}
    # an arrow the base does not have, and a shift of the wrong rank
    for key in ("zz@0", "a1@1,2"):
        with pytest.raises(SchemaError, match="unknown arrow"):
            module_from_json(cover, {"dims": ok["dims"], "arrowmaps": {key: [[1]]}})
    with pytest.raises(SchemaError, match="unknown arrow"):
        module_from_json(pres, {"dims": {"1": 1}, "arrowmaps": {"zz": [[1]]}})
