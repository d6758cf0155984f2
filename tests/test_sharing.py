"""Work shared within one command: one cover per (presentation, window), one
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
        ["suite", "--input", os.path.join(GOLDEN, "loop2.json"), "--n", "1", "--window", "3"]
    )
    capsys.readouterr()
    assert code in (0, 1, 3)
    carriers = {id(c) for c, *_ in knits}
    assert len(carriers) >= 2  # the cover and the base algebra at least
    assert len(knits) == len(set(knits))


def test_another_seed_knits_again(knits):
    pres = fresh("loop2")
    cover = smash_cover(pres, pres.group.box(3))
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
    cover = smash_cover(pres, pres.group.box(4))
    for carrier, x in ((pres, "1"), (cover, ("1", (0,)))):
        assert projective_at(carrier, x) is projective_at(carrier, x)
        assert injective_at(carrier, x) is injective_at(carrier, x)
    # a projective that leaves the window is built once as well
    edge = projective_at(cover, ("1", (-4,)))
    assert edge is projective_at(cover, ("1", (-4,)))
    assert edge.dims == {("1", (-4,)): 1, ("3", (-5,)): 1}
    assert not cover.in_window(edge.support)


def test_one_cover_per_window():
    pres = fresh("n32")
    assert smash_cover(pres, pres.group.box(3)) is smash_cover(pres, pres.group.box(3))
    assert smash_cover(pres, pres.group.box(3)) is not smash_cover(pres, pres.group.box(4))
    # a box that holds no lift of any relation is a cover like any other
    tiny = smash_cover(pres, pres.group.box(0))
    assert tiny is smash_cover(pres, pres.group.box(0))
    assert pres.memo("covers")[pres.group.box(0)] is tiny


def test_module_from_json_rejects_unknown_arrows():
    pres = fresh("n32")
    cover = smash_cover(pres, pres.group.box(3))
    ok = {"dims": {"1@0": 1, "2@1": 1}, "arrowmaps": {"a1@0": [[1]]}}
    assert module_from_json(cover, ok).dims == {("1", (0,)): 1, ("2", (1,)): 1}
    # an arrow lift off the window, and an arrow the base does not have
    with pytest.raises(SchemaError, match="unknown arrow"):
        module_from_json(cover, {"dims": ok["dims"], "arrowmaps": {"a1@3": [[1]]}})
    with pytest.raises(SchemaError, match="unknown arrow"):
        module_from_json(pres, {"dims": {"1": 1}, "arrowmaps": {"zz": [[1]]}})
