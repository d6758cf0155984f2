"""One closure loop, and the knit of the indecomposables built on it.

Every class list a claim is checked on is closed under some steps: the pool
of indecomposables, P_n and I_n, the τ_n-closure of the projectives and
injectives, and the push-down class list.  `close` is that one closure: it
keeps one class per isomorphism class (per twist orbit on a covering
carrier) of the summands it meets, breadth first, under a round cap and the
knit's dimension and class caps.  A module isomorphic to a class it holds
is dropped before it is decomposed: the classes are indexed by dimension
vector (up to twist on a covering carrier), and `class_index` against an
indecomposable class is exact.

The knit starts from the simples, projectives and injectives at the
fundamental domain and closes them under radicals, socle quotients,
syzygies, cosyzygies and the AR translates, until no new isomorphism class
appears.  Complete for the representation-finite carriers this toolkit
targets.  On a covering carrier the group acts freely, so the
indecomposables up to twist are those of the base (Gabriel): the pool closes
twist orbits and keeps one centred representative per orbit.

The knit computes no step whose result its pool already determines:

- Ω and Ω⁻, when the carrier has global dimension at most 1 (certified
  once per carrier from the simples at the fundamental domain), and so has
  its opposite.  There every submodule of a projective is projective, so
  Ω M and Ω⁻ M = D Ω D M strip to zero.
- τ on a class that entered the pool as the whole result τ⁻M, and τ⁻ on
  one that entered as the whole result τM: that result is M again, since τ
  and τ⁻ are inverse bijections between the indecomposable non-projectives
  and the non-injectives (Auslander–Reiten–Smalø, Representation Theory of
  Artin Algebras, IV.1.9).
"""

from __future__ import annotations

import math

from .covering import canonical_orbit_rep, class_index
from .errors import CapExceeded
from .homology import proj_dim_upto, syzygy, transpose
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


def _dims_key(M: FDModule):
    """M's dimension vector, up to twist over a covering carrier: there, the
    set of its translates that move one of its support shifts to the
    identity, so two modules share a key exactly when a twist matches their
    dimension vectors."""
    if not M.carrier.is_cover:
        return frozenset(M.dims.items())
    group = M.carrier.group
    return frozenset(
        frozenset(((v, group.sub(h, g)), d) for (v, h), d in M.dims.items())
        for g in {g for _, g in M.dims}
    )


def close(seeds, steps, rounds=math.inf, dimcap=math.inf, class_cap=math.inf) -> tuple:
    """(classes, closed): one class per isomorphism class (per twist orbit
    on a covering carrier, see class_index) of the summands of the seeds,
    then of steps(M) for each new class M, breadth first in discovery order;
    zero results, and results isomorphic to a class already found, are
    skipped.  At most `rounds` rounds follow the seeding, and closed says
    whether the last one found nothing new.  Raises CapExceeded when a
    summand's total dimension is above dimcap, or when the class count
    would pass class_cap."""
    classes: list = []
    by_dims: dict = {}

    def known(module) -> bool:
        return class_index(module, by_dims.get(_dims_key(module), ())) is not None

    def new_classes(modules) -> list:
        found = []
        for module in modules:
            if module.is_zero() or known(module):
                continue
            for piece, _ in decompose(module):
                if piece.total_dim > dimcap:
                    raise CapExceeded(
                        f"an indecomposable of dimension {piece.total_dim} exceeds --dimcap {dimcap}"
                    )
                # a module that is its own summand was just looked up
                if piece is module or not known(piece):
                    if len(classes) == class_cap:
                        raise CapExceeded(
                            f"more than {class_cap} isomorphism classes; "
                            "carrier may not be representation-finite at this scale"
                        )
                    classes.append(piece)
                    by_dims.setdefault(_dims_key(piece), []).append(piece)
                    found.append(piece)
        return found

    frontier = new_classes(seeds)
    done = 0
    while frontier and done < rounds:
        done += 1
        frontier = new_classes(X for M in frontier for X in steps(M))
    return classes, not frontier


def _named_steps(M: FDModule, skip):
    """(name, result) for the modules the closure takes from M, in order:
    rad M, M / soc M, Ω M, Ω⁻ M = D Ω D M, τ M = D Tr M and τ⁻ M = Tr D M,
    leaving out the translates named in skip.  One D M serves Ω⁻ and τ⁻,
    so its cover, kernel and the kernel's cover are built once and dropped
    with the steps; a result over the opposite is dualised."""
    yield "rad", radical_inclusion(M)[0]
    yield "top", cokernel_module(socle_inclusion(M)[1])[0]
    DM = None
    # (name, step, applied to D M), in order; built on each call, so that a
    # wrapper bound over `syzygy` or `transpose` in this module, as the
    # benchmark's tracer binds one, is the function called
    translates = (
        ("syzygy", syzygy, False),
        ("cosyzygy", syzygy, True),
        ("tau", transpose, False),
        ("tau-", transpose, True),
    )
    for name, step, on_dual in translates:
        if name in skip:
            continue
        if on_dual and DM is None:
            DM = dual_module(M)
        result = step(DM if on_dual else M)
        yield name, result if result.carrier is M.carrier else dual_module(result)


def _hereditary(carrier, simples) -> bool:
    """Does the carrier have global dimension at most 1?  The global
    dimension is the largest projective dimension of a simple, and twists
    preserve it, so `simples`, those at the fundamental domain, decide (the
    knit passes its seeds, whose resolutions then serve its steps).  The
    opposite has the same global dimension, since Ext²_C(S_x, S_y) ≅
    Ext²_{C^op}(D S_y, D S_x).  Memoised on the carrier."""
    memo = carrier.memo("knit")
    if "hereditary" not in memo:
        memo["hereditary"] = all(proj_dim_upto(S, 1).at_most(1) for S in simples)
    return memo["hereditary"]


def list_indecomposables(carrier, dimcap: int = 48, class_cap: int = 512) -> list:
    """The indecomposables, up to isomorphism.

    Exhaustive for representation-finite carriers (knitting closure); on a
    covering carrier, one centred module per twist orbit.  Raises
    CapExceeded when a summand met on the way has total dimension above
    dimcap, or when the class count outgrows class_cap: a truncated pool
    would let every check over it pass vacuously.  The carrier keeps
    one pool per (dimcap, class_cap), or the CapExceeded its knit raised,
    so each is knitted once; the caller gets a fresh list over the shared
    modules.
    """
    return list(_kept(carrier, "indecomposables", (dimcap, class_cap),
                      lambda: _knit(carrier, dimcap, class_cap)))


def _kept(carrier, table: str, key, build):
    """build(), kept in the carrier's memo table under key, so it runs once
    per carrier and key; a CapExceeded it raised is kept too, and raised
    again on every later call."""
    memo = carrier.memo(table)
    if key not in memo:
        try:
            memo[key] = build()
        except CapExceeded as exc:
            memo[key] = exc
    found = memo[key]
    if isinstance(found, CapExceeded):
        raise found.with_traceback(None)
    return found


def _knit(carrier, dimcap: int, class_cap: int) -> tuple:
    """The closure of the simples, projectives and injectives at the
    fundamental domain under `_named_steps`, less the steps the module
    docstring shows redundant, each class centred after the closure ends.
    `close` itself never centres, so the translate closures keep the
    modules their steps return."""
    domain = carrier.fundamental_domain()
    seeds = [build(carrier, x) for build in (simple_at, projective_at, injective_at) for x in domain]
    no_syzygies = {"syzygy", "cosyzygy"} if _hereditary(carrier, seeds[: len(domain)]) else set()
    inverse = {"tau": "tau-", "tau-": "tau"}

    def steps(M):
        for name, X in _named_steps(M, no_syzygies | {M._cache.get("knit_skip")}):
            if name in inverse:
                # should X become a class whole, its translate back is M
                X._cache["knit_skip"] = inverse[name]
            yield X

    classes, _ = close(seeds, steps, dimcap=dimcap, class_cap=class_cap)
    return tuple(map(canonical_orbit_rep, classes))
