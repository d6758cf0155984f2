"""Ext read off the minimal resolution against the hom-complex reference.

`homology.ext_dim` takes dim Hom(P_i, N) - rank Hom(d_{i+1}, N) - rank
Hom(d_i, N), with Hom(P_i, N) the sum of N(x) over the objects x of P_i's
summands and each block of Hom(d_i, N) the action of N on a Yoneda element.
`tests/reference_ext.py` solves hom bases and writes composites in them
instead.  The two must agree on every pair of modules of the carriers
below, at degrees 0-3, and `covering.ext_twist_sum` must agree with the
reference twist sums, contributing twists included.  Each family also holds
the sum of its first three modules, whose resolution terms have several
summands, so a block read or placed at another summand's offset shows.
"""

import sys

import pytest

import quivercover
from quivercover import (
    EndoCarrier,
    direct_sum,
    dual_module,
    ext_dim,
    ext_twist_sum,
    list_indecomposables,
    load_presentation,
    min_proj_resolution,
    phi_module,
    projective_at,
    simple_at,
    smash_cover,
)
from quivercover.precluster import _translate_closure
from tests import reference_ext
from tests.conftest import GOLDENS, golden_doc

FIELDS = {
    "own": None,
    "Q": {"kind": "rationals"},
    "F3": {"kind": "prime", "p": 3},
}
DEGREES = range(4)


def _families(pres) -> list:
    """(carrier, modules): the base, its opposite (the duals of the base's
    modules), the cover, and the endomorphism category of the τ-closure of
    base and cover with Hom(-, M) of each module M and its projectives."""
    out = []
    for carrier in (pres, smash_cover(pres)):
        mods = list_indecomposables(carrier)
        out.append((carrier, mods))
        if carrier is pres:
            out.append((pres.opposite(), [dual_module(M) for M in mods]))
        U, _ = _translate_closure(carrier, "both", 1, 32)
        E = EndoCarrier(U)
        out.append((E, [phi_module(E, M) for M in mods] + [projective_at(E, x) for x in E.objects]))
    return out


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("name", GOLDENS)
def test_ext_matches_the_hom_complex_reference(name, field):
    doc = golden_doc(name)
    if FIELDS[field]:
        doc["field"] = FIELDS[field]
    families = _families(load_presentation(doc))
    assert len(families) >= 3
    compared = 0
    for carrier, mods in families:
        mods = mods + [direct_sum(mods[:3])[0]]
        for M in mods:
            for N in mods:
                for i in DEGREES:
                    assert ext_dim(M, N, i) == reference_ext.ext_dim(M, N, i), (type(carrier).__name__, i)
                    compared += 1
                    if carrier.is_cover:
                        want = reference_ext.ext_twist_sum(M, N, i) if i else reference_ext.hom_twist_sum(M, N)
                        assert ext_twist_sum(M, N, i) == want, i
    assert compared >= 100


def test_ext_takes_no_hom_basis_once_the_resolution_is_built(n32, monkeypatch):
    # Ext^2 between simples of the self-injective Nakayama algebra n32 is
    # read from the resolution alone; the reference solves three hom bases
    M = simple_at(n32, "1")
    min_proj_resolution(M, 3)
    original = quivercover.modules.hom_basis
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("quivercover") and getattr(module, "hom_basis", None) is original:
            monkeypatch.setattr(module, "hom_basis", counting)
    dims = [ext_dim(M, N, 2) for N in (simple_at(n32, x) for x in n32.vertices)]
    assert calls == []
    monkeypatch.undo()
    assert dims == [reference_ext.ext_dim(M, simple_at(n32, x), 2) for x in n32.vertices]
    assert sum(dims) == 1
