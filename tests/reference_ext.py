"""Reference: Ext from the hom complex, as computed before Ext was read off
the minimal resolution by Yoneda.

`ext_space(M, N, i)` solves a basis of Hom(P_j, N) for j = i - 1, i, i + 1,
writes every composite with a differential in those bases, and builds one
cocycle morphism per class.  `hom_twist_sum` and `ext_twist_sum` sum it
over the twists whose support arithmetic against X and its resolution
terms allows a nonzero value, a superset of the twists that reach an object
of P_i.  Tests check `homology.ext_dim` and `covering.ext_twist_sum`
against them.
"""

from dataclasses import dataclass, field as dc_field

from quivercover.covering import twist_module
from quivercover.errors import ShapeMismatch
from quivercover.field import Mat, hstack, kernel_basis, rref
from quivercover.homology import Resolution, min_proj_resolution
from quivercover.modules import FDModule, hom_basis, hom_dim, morphism_coords, twist_candidates
from tests.conftest import combine, resolution_term


@dataclass
class ExtSpace:
    degree: int
    dim: int
    cocycles: list = dc_field(default_factory=list)  # morphisms P_degree -> N


def _coords_matrix(basis, morphisms) -> Mat:
    """Columns: coordinates of each morphism in the given hom basis."""
    field = (basis[0] if basis else morphisms[0]).src.carrier.field
    cols = []
    for phi in morphisms:
        c = morphism_coords(basis, phi)
        if c is None:
            raise ShapeMismatch("morphism outside the hom space")
        cols.append(c if c.cols else Mat.zeros(field, 0, 1))
    return hstack(cols) if cols else Mat.zeros(field, len(basis), 0)


def _hom_complex_ext(res: Resolution, N: FDModule, i: int) -> ExtSpace:
    """Cohomology at degree i of Hom(P_., N) for the resolution P_. of M."""
    H = hom_basis(resolution_term(res, i), N)
    if not H:
        return ExtSpace(i, 0, [])
    after = hom_basis(resolution_term(res, i + 1), N)
    if after:
        kern = kernel_basis(_coords_matrix(after, [phi @ res.diff(i + 1) for phi in H]))
    else:
        kern = Mat.identity(N.carrier.field, len(H))
    before = hom_basis(resolution_term(res, i - 1), N) if i > 0 else []
    if before:
        # representatives: kernel vectors modulo the image
        delta_prev = _coords_matrix(H, [phi @ res.diff(i) for phi in before])
        _, pivots = rref(hstack([delta_prev, kern]))
        kern = kern[:, [p - delta_prev.cols for p in pivots if p >= delta_prev.cols]]
    cocycles = [combine(H, col) for col in kern.transpose().tolists()]
    return ExtSpace(i, len(cocycles), cocycles)


def ext_space(M: FDModule, N: FDModule, i: int) -> ExtSpace:
    """Ext^i(M, N) from the minimal projective resolution of M."""
    if i < 0:
        raise ShapeMismatch("ext degree must be >= 0")
    if M.is_zero() or N.is_zero():
        return ExtSpace(i, 0, [])
    return _hom_complex_ext(min_proj_resolution(M, i + 1), N, i)


def ext_dim(M: FDModule, N: FDModule, i: int) -> int:
    return ext_space(M, N, i).dim


def hom_twist_sum(X: FDModule, Y: FDModule) -> tuple:
    """(sum over a of dim Hom(X, ^aY), contributing twist list)."""
    total = 0
    used = []
    for a in twist_candidates(X.carrier.group, Y.support, X.support):
        aY = twist_module(Y, a)
        d = hom_dim(X, aY)
        if d:
            used.append(a)
        total += d
    return total, used


def ext_twist_sum(X: FDModule, Y: FDModule, i: int) -> tuple:
    """(sum over a of dim Ext^i(X, ^aY), contributing twist list).

    Twists are cut off by support arithmetic against the first i+2 terms of
    the minimal resolution of X (morphism spaces out of those terms are the
    only carriers of Ext classes)."""
    res = min_proj_resolution(X, i + 1)
    term_support = set(X.support)
    for j in range(i + 2):
        term_support.update(resolution_term(res, j).support)
    total = 0
    used = []
    for a in twist_candidates(X.carrier.group, Y.support, term_support):
        aY = twist_module(Y, a)
        d = ext_dim(X, aY, i)
        if d:
            used.append(a)
        total += d
    return total, used
