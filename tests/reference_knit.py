"""Reference: the six-step knit on every carrier, matching each summand
against the pool one class at a time.

`reference_knit(carrier, dimcap, class_cap)` closes the simples,
projectives and injectives at the fundamental domain under all six steps of
`closure_steps`, on every class, hereditary or not, and decomposes every
step result before its summands are matched with the pool, one class test
against each class in turn.  Tests check `knitting._knit`, which takes τ⁻
alone on a hereditary carrier and drops a result isomorphic to a class
before decomposing it, against it: class by class and in order on a
carrier with relations, class for class in any order on a hereditary one.
"""

from quivercover.covering import canonical_orbit_rep, class_index
from quivercover.errors import CapExceeded
from quivercover.knitting import _steps
from quivercover.modules import decompose, injective_at, projective_at, simple_at


# all six steps of the closure from M, in order
closure_steps = _steps


def reference_knit(carrier, dimcap=48, class_cap=512) -> tuple:
    classes = []

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

    domain = carrier.fundamental_domain()
    frontier = new_classes(
        build(carrier, x) for build in (simple_at, projective_at, injective_at) for x in domain
    )
    while frontier:
        frontier = new_classes(X for M in frontier for X in closure_steps(M))
    return tuple(map(canonical_orbit_rep, classes))
