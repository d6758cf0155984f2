"""Closure-based enumeration of indecomposables (knitting).

Starting from the simples (and every materializable representable), the pool
is closed under radicals, socle quotients, syzygies, cosyzygies, the AR
translates, and summand extraction, until no new isomorphism class appears.
Complete for the representation-finite carriers this toolkit targets; on a
covering carrier the pool keeps the indecomposables whose support lies in
the window.
"""

from __future__ import annotations

from .errors import CapExceeded
from .homology import cosyzygy, syzygy, tau, tau_minus
from .modules import (
    FDModule,
    _certified_indec_iso,
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


class _Pool:
    def __init__(self, class_cap: int):
        self.classes: list[FDModule] = []
        self.by_key: dict = {}
        self.class_cap = class_cap

    def add(self, M: FDModule) -> bool:
        key = M.dims_key()
        bucket = self.by_key.setdefault(key, [])
        for rep in bucket:
            if _certified_indec_iso(rep, M):
                return False
        bucket.append(M)
        self.classes.append(M)
        if len(self.classes) > self.class_cap:
            raise CapExceeded(
                f"more than {self.class_cap} isomorphism classes; "
                "carrier may not be representation-finite at this scale"
            )
        return True


def list_indecomposables(carrier, dimcap: int = 48, class_cap: int = 512) -> list:
    """Indecomposables of total dimension <= dimcap, up to isomorphism.

    Exhaustive for representation-finite carriers (knitting closure); raises
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
    pool = _Pool(class_cap)
    work = []

    def gather(module):
        for piece, _ in decompose(module):
            if (
                0 < piece.total_dim <= dimcap
                and carrier.in_window(piece.support)
                and pool.add(piece)
            ):
                work.append(piece)

    seeds = [simple_at(carrier, x) for x in carrier.objects]
    for builder in (projective_at, injective_at):
        seeds += [builder(carrier, x) for x in carrier.objects]
    for candidate in seeds:
        gather(candidate)
    while work:
        M = work.pop(0)
        for step in _closure_steps(M):
            result = step()
            if not result.is_zero():
                gather(result)
    return tuple(pool.classes)
