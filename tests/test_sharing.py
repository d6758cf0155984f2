"""Work shared within one command: one cover per presentation, one
indecomposable pool per (carrier, dimcap, class_cap), and one
representable per (carrier, object)."""

import importlib
import json
import os
import pkgutil
from contextvars import ContextVar

import pytest

import quivercover
from quivercover import (
    EndoCarrier,
    Group,
    SchemaError,
    injective_at,
    list_indecomposables,
    dual_module,
    load_presentation,
    module_from_json,
    module_to_json,
    orbit_of_finite_action,
    projective_at,
    smash_cover,
    validate_module,
)
from quivercover import knitting
from quivercover.carrier import ISO_SEED
from quivercover.cli import main
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
        calls.append((carrier, dimcap, class_cap, carrier.seed))
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
    other = smash_cover(load_presentation(golden_doc("loop2"), seed=7))
    again = list_indecomposables(other)
    assert len(knits) == 2
    assert knits[-1][0] is other and knits[-1][3] == 7
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


def test_the_seed_travels_with_the_carrier():
    pres = load_presentation(golden_doc("n32"), seed=7)
    default = load_presentation(golden_doc("n32"))
    cover = smash_cover(pres)
    base_U = [projective_at(pres, x) for x in pres.vertices]
    cover_U = [projective_at(cover, x) for x in cover.fundamental_domain()]
    six = load_presentation(golden_doc("sixcycle"), seed=7)
    with open(os.path.join(GOLDEN, "sixcycle_action.json"), encoding="utf-8") as fh:
        action = json.load(fh)
    quotient = orbit_of_finite_action(
        six, Group.cyclic(action["m"]), action["vertex_map"], action["arrow_map"]
    )
    carriers = [
        pres,
        cover,
        pres.opposite(),
        cover.opposite(),
        EndoCarrier(base_U),
        EndoCarrier(cover_U),
        quotient,
        smash_cover(quotient),
    ]
    assert [C.seed for C in carriers] == [7] * len(carriers)
    assert default.seed == smash_cover(default).seed == default.opposite().seed == ISO_SEED


def test_no_module_holds_process_global_state():
    found = []
    for info in pkgutil.iter_modules(quivercover.__path__):
        module = importlib.import_module(f"quivercover.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(value, (ContextVar, dict, list, set)):
                found.append(f"{info.name}.{name}")
    assert found == []
