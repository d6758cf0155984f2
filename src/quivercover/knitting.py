"""One closure loop, and the knit of the indecomposables built on it.

Every class list a claim is checked on is closed under some steps: the pool
of indecomposables, P_n and I_n, the τ_n-closure of the projectives and
injectives, and the push-down class list.  `close` is that one closure: it
keeps one class per isomorphism class (per twist orbit on a covering
carrier) of the summands it meets, breadth first, under a round cap and the
knit's dimension and class caps.

The knit starts from the simples, projectives and injectives at the
fundamental domain and closes them under radicals, socle quotients,
syzygies, cosyzygies and the AR translates, until no new isomorphism class
appears.  Complete for the representation-finite carriers this toolkit
targets.  On a covering carrier the group acts freely, so the
indecomposables up to twist are those of the base (Gabriel): the pool closes
twist orbits and keeps one centred representative per orbit.
"""

from __future__ import annotations

import math

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


def close(seeds, steps, rounds=math.inf, dimcap=math.inf, class_cap=math.inf) -> tuple:
    """(classes, closed): one class per isomorphism class (per twist orbit
    on a covering carrier, see class_index) of the summands of the seeds,
    then of steps(M) for each new class M, breadth first in discovery order;
    zero results are skipped.  At most `rounds` rounds follow the seeding,
    and closed says whether the last one found nothing new.  Raises
    CapExceeded when a summand's total dimension is above dimcap, or when
    the class count would pass class_cap."""
    classes: list = []

    def new_classes(modules) -> list:
        found = []
        for module in modules:
            if module.is_zero():
                continue
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
                    classes.append(piece)
                    found.append(piece)
        return found

    frontier = new_classes(seeds)
    done = 0
    while frontier and done < rounds:
        done += 1
        frontier = new_classes(X for M in frontier for X in steps(M))
    return classes, not frontier


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
    """The closure of the simples, projectives and injectives at the
    fundamental domain under `_closure_steps`, each class centred after the
    closure ends.  `close` itself never centres, so the translate closures
    keep the modules their steps return."""
    domain = carrier.fundamental_domain()
    seeds = [build(carrier, x) for build in (simple_at, projective_at, injective_at) for x in domain]
    classes, _ = close(seeds, _closure_steps, dimcap=dimcap, class_cap=class_cap)
    return tuple(map(canonical_orbit_rep, classes))
