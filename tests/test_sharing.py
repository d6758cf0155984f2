"""Work shared within one command: one cover per presentation, one
indecomposable pool per (carrier, dimcap, class_cap), and one
representable per (carrier, object), each kept through `carrier.kept` on
the carrier or module that owns it."""

import gc
import importlib
import json
import os
import pkgutil
import weakref
from contextvars import ContextVar

import pytest

import quivercover
from quivercover import (
    CapExceeded,
    DecompositionInconclusive,
    FDModule,
    SchemaError,
    ShapeMismatch,
    decompose,
    injective_at,
    is_indecomposable,
    list_indecomposables,
    dual_module,
    load_presentation,
    module_from_json,
    module_to_json,
    projective_at,
    smash_cover,
    validate_module,
)
from quivercover import knitting
from quivercover.carrier import kept
from quivercover.cli import main
from tests.conftest import golden_doc

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")


def fresh(name):
    """A presentation no other test has memoised anything on."""
    return load_presentation(golden_doc(name))


@pytest.fixture
def knits(monkeypatch):
    """Every inner knit as (carrier, dimcap, class_cap)."""
    calls = []
    original = knitting._knit

    def counting(carrier, dimcap, class_cap):
        calls.append((carrier, dimcap, class_cap))
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


def test_another_carrier_or_dimcap_knits_again(knits):
    cover = smash_cover(fresh("loop2"))
    first = list_indecomposables(cover)
    list_indecomposables(cover)
    assert len(knits) == 1
    other = smash_cover(fresh("loop2"))
    again = list_indecomposables(other)
    assert len(knits) == 2 and knits[-1][0] is other
    assert len(again) == len(first)
    assert all(a is b for a, b in zip(list_indecomposables(cover), first))
    assert len(knits) == 2
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


def test_an_opposite_shares_the_generator_keys_of_its_base():
    pres = fresh("n32")
    cover = smash_cover(pres)
    assert pres.opposite().has_generator("a1")
    assert cover.opposite().has_generator(("a1", (0,)))
    assert not pres.opposite().has_generator("zz")
    assert not cover.opposite().has_generator(("zz", (0,)))
    # so a module over the opposite reads back from its JSON
    D = dual_module(projective_at(pres, "1"))
    read = module_from_json(pres.opposite(), module_to_json(D))
    validate_module(read)
    assert read.carrier is D.carrier
    assert read.dims == D.dims and read.gen_mats == D.gen_mats


def test_a_module_over_the_opposite_of_a_cover_round_trips_through_json():
    cover = smash_cover(fresh("n32"))
    D = dual_module(projective_at(cover, ("1", (0,))))
    doc = json.loads(json.dumps(module_to_json(D)))
    assert all("@" in key for key in [*doc["dims"], *doc["arrowmaps"]])
    read = module_from_json(cover.opposite(), doc)
    validate_module(read)
    assert read.carrier is D.carrier
    assert read.dims == D.dims and read.gen_mats == D.gen_mats


def test_no_module_holds_process_global_state():
    found = []
    for info in pkgutil.iter_modules(quivercover.__path__):
        module = importlib.import_module(f"quivercover.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(value, (ContextVar, dict, list, set)):
                found.append(f"{info.name}.{name}")
    assert found == []


def test_kept_builds_a_result_once():
    table, builds = {}, []
    for _ in range(3):
        assert kept(table, "key", lambda: builds.append(1) or "built") == "built"
    assert builds == [1] and table == {"key": "built"}


@pytest.mark.parametrize("error", [CapExceeded, DecompositionInconclusive])
def test_kept_raises_a_kept_error_again_without_building_again(error):
    table, builds, raised = {}, [], []

    def build():
        builds.append(1)
        raise error("stopped")

    for _ in range(3):
        with pytest.raises(error, match="stopped") as info:
            kept(table, "key", build)
        raised.append(info.value)
    assert builds == [1]
    assert raised[0] is raised[1] is raised[2] is table["key"]


def test_kept_keeps_no_other_error():
    table, builds = {}, []

    def build():
        builds.append(1)
        if len(builds) == 1:
            raise ShapeMismatch("first try")
        return "built"

    with pytest.raises(ShapeMismatch):
        kept(table, "key", build)
    assert table == {}
    assert kept(table, "key", build) == "built"
    assert builds == [1, 1]


def test_an_inconclusive_decomposition_leaves_no_indecomposable_mark(monkeypatch):
    # the mark is not a cache: a DecompositionInconclusive kept under
    # "indec" would read as a truthy mark, and decompose would then return
    # the module whole
    from quivercover import modules

    monkeypatch.setattr(modules, "_LISTED", 1)
    doc = dict(golden_doc("loop2"), field={"kind": "prime", "p": 2})
    P = projective_at(load_presentation(doc), "v")
    M = FDModule(P.carrier, P.dims, P.gen_mats)  # the projective, unmarked
    for _ in range(2):
        with pytest.raises(DecompositionInconclusive):
            is_indecomposable(M)
        with pytest.raises(DecompositionInconclusive):
            decompose(M)
    assert not M._cache.get("indec")


def test_caches_are_dropped_with_the_objects_that_own_them():
    # every cache is a table on its carrier or module, so once a command's
    # presentation goes, its cover, the cover's opposite and every pool,
    # closure and resolution kept on them go too
    from quivercover.cli import build_parser, run_claim
    from quivercover.report import CLAIM_IDS

    pres = fresh("n32")
    args = build_parser().parse_args(["suite", "--input", "n32.json"])
    reports = [run_claim(pres, claim, 1, args) for claim in CLAIM_IDS]
    assert len(reports) == 11
    cover = smash_cover(pres)
    refs = [weakref.ref(c) for c in (pres, cover, cover.opposite())]
    del pres, cover, reports
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3
