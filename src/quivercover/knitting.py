"""Closure-based enumeration of indecomposables (knitting).

Starting from the simples, projectives and injectives at the fundamental
domain, the pool is closed under radicals, socle quotients, syzygies,
cosyzygies, the AR translates, and summand extraction, until no new
isomorphism class appears.  Complete for the representation-finite carriers
this toolkit targets.  On a covering carrier the group acts freely, so the
indecomposables up to twist are those of the base (Gabriel): the pool closes
twist orbits and keeps one centred representative per orbit.
"""

from __future__ import annotations

from .covering import add_class, canonical_orbit_rep
from .errors import CapExceeded
from .homology import cosyzygy, syzygy, tau, tau_minus
from .modules import (
    FDModule,
    cokernel_module,
    decompose,
    injective_at,
    iso_seed,
    projective_at,
    radical_inclusion,
    simple_at,
    socle_inclusion,
)


def _closure_steps(M: FDModule):
    yield lambda: radical_inclusion(M)[0]
    yield lambda: cokernel_module(socle_inclusion(M)[1])[0]
    yield lambda: syzygy(M, 1)
    yield lambda: cosyzygy(M, 1)
    yield lambda: tau(M)
    yield lambda: tau_minus(M)


def list_indecomposables(carrier, dimcap: int = 48, class_cap: int = 512) -> list:
    """Indecomposables of total dimension <= dimcap, up to isomorphism.

    Exhaustive for representation-finite carriers (knitting closure); on a
    covering carrier, one centred module per twist orbit.  Raises
    CapExceeded when the class count outgrows class_cap.  The carrier keeps
    one pool per (dimcap, class_cap, iso seed), so each is knitted once; the
    caller gets a fresh list over the shared modules.
    """
    pools = carrier.memo("indecomposables")
    key = (dimcap, class_cap, iso_seed.get())
    if key not in pools:
        pools[key] = _knit(carrier, dimcap, class_cap)
    return list(pools[key])


def _knit(carrier, dimcap: int, class_cap: int) -> tuple:
    classes: list = []
    work = []

    def gather(module):
        for piece, _ in decompose(module):
            if 0 < piece.total_dim <= dimcap and add_class(classes, piece, carrier.is_cover):
                if len(classes) > class_cap:
                    raise CapExceeded(
                        f"more than {class_cap} isomorphism classes; "
                        "carrier may not be representation-finite at this scale"
                    )
                classes[-1] = canonical_orbit_rep(piece)
                work.append(classes[-1])

    domain = carrier.fundamental_domain()
    seeds = [simple_at(carrier, x) for x in domain]
    for builder in (projective_at, injective_at):
        seeds += [builder(carrier, x) for x in domain]
    for candidate in seeds:
        gather(candidate)
    while work:
        M = work.pop(0)
        for step in _closure_steps(M):
            result = step()
            if not result.is_zero():
                gather(result)
    return tuple(classes)
