"""Support-local module operations against all-generator references.

The references below loop over every listed object and generator, the way
the module layer did before it walked only a module's support and the
generators incident to it.  On a cover they are given the objects and
generators of the box of half-width 3, so they stand as references for
modules that lie in it.  Both must give the same modules, the same generator
matrices and the same hom spaces, on every golden cover and on each base
algebra.
"""

import numpy as np
import pytest

from quivercover import (
    direct_sum,
    hom_basis,
    injective_at,
    load_presentation,
    projective_at,
    simple_at,
    smash_cover,
)
from quivercover.field import Mat, kernel_basis, vstack
from quivercover.modules import FDModule, ModMorphism
from tests.conftest import commutes, golden_doc, shift_box
from window_knit import box_generators, box_objects

GOLDEN = ["ausl2", "ka2", "ka3", "loop2", "n32", "sixcycle"]


def ref_projective_at(carrier, x, objects, generators):
    """The projective at x, for x whose projective support lies in objects."""
    dims = {y: carrier.hom_dim(y, x) for y in objects}
    mats = {}
    for g in generators:
        s, t = carrier.gen_src(g), carrier.gen_tgt(g)
        if dims.get(s, 0) and dims.get(t, 0):
            mats[g] = carrier.left_mult_mat(g, x)
    return FDModule(carrier, dims, mats)


def ref_direct_sum(mods, generators):
    carrier = mods[0].carrier
    field = carrier.field
    dims, offsets = {}, []
    for M in mods:
        off = {}
        for x in M.support:
            off[x] = dims.get(x, 0)
            dims[x] = dims.get(x, 0) + M.dim(x)
        offsets.append(off)
    mats = {}
    for g in generators:
        s, t = carrier.gen_src(g), carrier.gen_tgt(g)
        ds, dt = dims.get(s, 0), dims.get(t, 0)
        if ds == 0 or dt == 0:
            continue
        a = np.zeros((ds, dt), dtype=object)
        for M, off in zip(mods, offsets):
            if M.dim(s) and M.dim(t):
                rs, cs = off[s], off[t]
                a[rs : rs + M.dim(s), cs : cs + M.dim(t)] = array(M.mat(g))
        mats[g] = Mat.from_rows(field, a.tolist())
    return FDModule(carrier, dims, mats)


def array(m):
    return np.array(m.tolists(), dtype=object).reshape(m.shape)


def kron(A, B):
    return np.kron(array(A), array(B))


def ref_hom_basis(M, N, objects, generators):
    carrier = M.carrier
    field = carrier.field
    var_objs = [x for x in objects if M.dim(x) and N.dim(x)]
    offsets, nvars = {}, 0
    for x in var_objs:
        offsets[x] = nvars
        nvars += M.dim(x) * N.dim(x)
    if nvars == 0:
        return []
    rows = []
    for g in generators:
        x, y = carrier.gen_src(g), carrier.gen_tgt(g)
        neq = N.dim(x) * M.dim(y)
        if neq == 0 or (x not in offsets and y not in offsets):
            continue
        block = np.zeros((neq, nvars), dtype=object)
        if x in offsets:
            k = kron(Mat.identity(field, N.dim(x)), M.mat(g).transpose())
            block[:, offsets[x] : offsets[x] + M.dim(x) * N.dim(x)] = k
        if y in offsets:
            k = kron(N.mat(g), Mat.identity(field, M.dim(y)))
            cols = slice(offsets[y], offsets[y] + M.dim(y) * N.dim(y))
            block[:, cols] = block[:, cols] - k
        rows.append(Mat.from_rows(field, block.tolist()))
    kern = kernel_basis(vstack(rows)) if rows else Mat.identity(field, nvars)
    basis = []
    for j in range(kern.cols):
        mats = {}
        for x in var_objs:
            vec = array(kern)[offsets[x] : offsets[x] + M.dim(x) * N.dim(x), j]
            mats[x] = Mat.from_rows(field, np.reshape(vec, (N.dim(x), M.dim(x))).tolist())
        basis.append(ModMorphism(M, N, mats))
    return basis


def same_module(A, B):
    return (
        A.dims == B.dims
        and set(A.gen_mats) == set(B.gen_mats)
        and all(A.gen_mats[g] == B.gen_mats[g] for g in A.gen_mats)
    )


def carriers():
    """(id, carrier, objects, generators) with the objects and generators
    the references loop over."""
    for name in GOLDEN:
        pres = load_presentation(golden_doc(name))
        yield f"{name}-base", pres, pres.objects, pres.generators
        cover, box = smash_cover(pres), shift_box(pres.group, 3)
        yield f"{name}-cover3", cover, box_objects(cover, box), box_generators(cover, box)


@pytest.fixture(scope="module", params=list(carriers()), ids=lambda p: p[0])
def carrier_modules(request):
    """A carrier with its listed objects and generators, its simples there,
    the projectives and injectives that fit among those objects, and two
    direct sums of those."""
    _, carrier, objects, generators = request.param
    mods = [simple_at(carrier, x) for x in objects]
    for build in (projective_at, injective_at):
        for x in objects:
            M = build(carrier, x)
            if set(M.support) <= set(objects):
                mods.append(M)
    sums = [direct_sum(parts)[0] for parts in (mods[len(mods) // 2 :], mods[::3])]
    return carrier, objects, generators, mods, sums


def test_projectives_match_reference(carrier_modules):
    carrier, objects, generators, _, _ = carrier_modules
    for x in objects:
        P = projective_at(carrier, x)
        if set(P.support) <= set(objects):
            assert same_module(P, ref_projective_at(carrier, x, objects, generators))
        else:
            # past the box the reference cannot see; the support still
            # comes from the hom spaces
            assert P.dims == {y: carrier.hom_dim(y, x) for y in P.support}


def test_direct_sums_match_reference(carrier_modules):
    _, _, generators, mods, _ = carrier_modules
    for parts in (mods[len(mods) // 2 :], mods[::3], mods[1::2]):
        assert same_module(direct_sum(parts)[0], ref_direct_sum(parts, generators))


def test_hom_bases_match_reference(carrier_modules):
    _, objects, generators, mods, sums = carrier_modules
    mods = mods + sums
    for M in mods[::2]:
        for N in mods:
            new, ref = hom_basis(M, N), ref_hom_basis(M, N, objects, generators)
            assert len(new) == len(ref)
            for phi, psi in zip(new, ref):
                assert (phi - psi).is_zero()
                assert commutes(phi)


def test_support_is_the_object_filter_in_order(carrier_modules):
    _, objects, _, mods, sums = carrier_modules
    for M in mods + sums:
        assert M.support == tuple(x for x in objects if M.dims.get(x, 0))
