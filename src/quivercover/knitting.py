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

A translate of a class is taken whole, as one class, without building its
endomorphism algebra.  Tr is a bijection from the indecomposable
non-projectives over C to those over C^op, and kills the projectives
(Auslander–Reiten–Smalø, Representation Theory of Artin Algebras, §IV.1;
Assem–Simson–Skowroński, Elements 1, §IV.2), and D is a duality.  So
`transpose` marks a nonzero Tr M indecomposable when M is marked,
`dual_module` carries the mark, and `decompose` returns a marked module as
its one summand.  The seeds are marked (a simple by its dimension, a
representable by its local endomorphism ring), and so is each piece of a
certified decomposition: on a hereditary carrier the knit decomposes
nothing.

The knit starts from the simples, projectives and injectives at the
fundamental domain and closes them under one list of steps until no new
isomorphism class appears.  On a covering carrier the group acts freely, so
the indecomposables up to twist are those of the base (Gabriel): the pool
closes twist orbits and keeps one centred representative per orbit.  The
list depends on the carrier alone:

- On a hereditary carrier, one of global dimension at most 1 (certified
  once per carrier from the simples at the fundamental domain; its
  opposite then has it too), the knit takes τ⁻ alone.  Over a hereditary
  algebra the component of the AR quiver holding the projectives consists
  of the modules τ⁻ᵏP, and a finite component is the whole AR quiver
  (Auslander's theorem; Assem–Simson–Skowroński, Elements of the
  Representation Theory of Associative Algebras 1, Thm IV.5.4 and §VIII.2).
  The seeds hold every projective, so when their τ⁻-closure ends it holds
  the preprojective component, which is then finite, and so every
  indecomposable: the pool is complete.  On a covering carrier push-down
  commutes with τ⁻ and reaches every indecomposable of the base (Gabriel,
  The universal cover of a representation-finite algebra, LNM 903, 1981),
  so the same holds up to twist.  A closure that does not end, as on a
  representation-infinite carrier, still stops at the dimension cap.
- On any other carrier, the knit takes radicals, socle quotients, syzygies,
  cosyzygies and both AR translates of every class.  The pool is then the
  closure of these six steps, and nothing yet certifies that it holds every
  indecomposable.
"""

from __future__ import annotations

import math

from .carrier import kept
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


def _steps(M: FDModule):
    """The modules the closure takes from M, in order: rad M, M / soc M,
    Ω M, Ω⁻ M = D Ω D M, τ M = D Tr M and τ⁻ M = Tr D M.  One D M serves
    Ω⁻ and τ⁻, so its cover, kernel and the kernel's cover are built once
    and dropped with the steps; a result over the opposite is dualised."""
    yield radical_inclusion(M)[0]
    yield cokernel_module(socle_inclusion(M)[1])[0]
    yield syzygy(M)
    DM = dual_module(M)
    yield dual_module(syzygy(DM))
    yield dual_module(transpose(M))
    yield transpose(DM)


def _tau_minus(M: FDModule):
    """τ⁻ M = Tr D M, the one step of the knit on a hereditary carrier."""
    yield transpose(dual_module(M))


def _hereditary(carrier, simples) -> bool:
    """Does the carrier have global dimension at most 1?  The global
    dimension is the largest projective dimension of a simple, and twists
    preserve it, so `simples`, those at the fundamental domain, decide (the
    knit passes its seeds, whose resolutions then serve its steps).  The
    opposite has the same global dimension, since Ext²_C(S_x, S_y) ≅
    Ext²_{C^op}(D S_y, D S_x).  Kept on the carrier."""
    return kept(carrier.memo("knit"), "hereditary",
                lambda: all(proj_dim_upto(S, 1).at_most(1) for S in simples))


def list_indecomposables(carrier, dimcap: int = 48, class_cap: int = 512) -> list:
    """The indecomposables, up to isomorphism.

    Complete on a hereditary carrier once the knit ends (Auslander's
    theorem); on any other carrier the closure of the six steps, with no
    certificate of completeness.  On a covering carrier, one centred
    module per twist orbit.  Raises
    CapExceeded when a summand met on the way has total dimension above
    dimcap, or when the class count outgrows class_cap: a truncated pool
    would let every check over it pass vacuously.  The carrier keeps
    one pool per (dimcap, class_cap), or the CapExceeded or
    DecompositionInconclusive its knit raised, so each is knitted once;
    the caller gets a fresh list over the shared modules.
    """
    return list(kept(carrier.memo("indecomposables"), (dimcap, class_cap),
                     lambda: _knit(carrier, dimcap, class_cap)))


def _knit(carrier, dimcap: int, class_cap: int) -> tuple:
    """The closure of the simples, projectives and injectives at the
    fundamental domain under `_tau_minus` on a hereditary carrier and under
    `_steps` on any other, each class centred after the closure ends.
    `close` itself never centres, so the translate closures keep the
    modules their steps return."""
    domain = carrier.fundamental_domain()
    seeds = [build(carrier, x) for build in (simple_at, projective_at, injective_at) for x in domain]
    steps = _tau_minus if _hereditary(carrier, seeds[: len(domain)]) else _steps
    classes, _ = close(seeds, steps, dimcap=dimcap, class_cap=class_cap)
    return tuple(map(canonical_orbit_rep, classes))
