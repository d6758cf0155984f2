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

from .covering import canonical_orbit_rep, class_index
from .errors import CapExceeded
from .homology import syzygy, transpose
from .modules import (
    FDModule,
    cokernel_module,
    decompose,
    dual_module,
    injective_at,
    projective_at,
    radical_inclusion,
    simple_at,
    socle_inclusion,
)


def _closure_steps(M: FDModule):
    """The modules the closure takes from M, in order: rad M, M / soc M,
    Ω M, Ω⁻ M = D Ω D M, τ M = D Tr M and τ⁻ M = Tr D M.  One D M serves
    Ω⁻ and τ⁻, so its cover, kernel and the kernel's cover are built once
    and dropped with the steps; a result over the opposite is dualised."""
    yield radical_inclusion(M)[0]
    yield cokernel_module(socle_inclusion(M)[1])[0]
    DM = dual_module(M)
    for step in (syzygy, transpose):
        for X in (M, DM):
            result = step(X)
            yield result if result.carrier is M.carrier else dual_module(result)


def list_indecomposables(carrier, dimcap: int = 48, class_cap: int = 512) -> list:
    """The indecomposables, up to isomorphism.

    Exhaustive for representation-finite carriers (knitting closure); on a
    covering carrier, one centred module per twist orbit.  Raises
    CapExceeded when a summand met on the way has total dimension above
    dimcap, or when the class count outgrows class_cap: a truncated pool
    would let every check over it pass vacuously.  The carrier keeps
    one pool per (dimcap, class_cap), so each is knitted once; the
    caller gets a fresh list over the shared modules.
    """
    pools = carrier.memo("indecomposables")
    key = (dimcap, class_cap)
    if key not in pools:
        pools[key] = _knit(carrier, dimcap, class_cap)
    return list(pools[key])


def _knit(carrier, dimcap: int, class_cap: int) -> tuple:
    classes: list = []
    work = []

    def gather(module):
        for piece, _ in decompose(module):
            if piece.total_dim > dimcap:
                raise CapExceeded(
                    f"an indecomposable of dimension {piece.total_dim} exceeds --dimcap {dimcap}"
                )
            if class_index(piece, classes) is None:
                if len(classes) == class_cap:
                    raise CapExceeded(
                        f"more than {class_cap} isomorphism classes; "
                        "carrier may not be representation-finite at this scale"
                    )
                classes.append(canonical_orbit_rep(piece))
                work.append(classes[-1])

    domain = carrier.fundamental_domain()
    seeds = [simple_at(carrier, x) for x in domain]
    for builder in (projective_at, injective_at):
        seeds += [builder(carrier, x) for x in domain]
    for candidate in seeds:
        gather(candidate)
    while work:
        M = work.pop(0)
        for result in _closure_steps(M):
            if not result.is_zero():
                gather(result)
    return tuple(classes)
