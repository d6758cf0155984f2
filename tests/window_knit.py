"""Reference: the window knit that the orbit knit replaced.

`window_knit(cover, box)` lists every indecomposable whose support lies in a
window box of shifts (say `conftest.shift_box(group, 3)`), one module per
isomorphism class (twists are different classes), seeded from every object
of the box.  Tests check the orbit knit and the orbit counts in the reports
against it.  The helpers list the objects and generators of a box, which the
cover itself does not list.
"""

from quivercover.errors import CapExceeded
from quivercover.modules import (
    decompose,
    find_iso,
    injective_at,
    projective_at,
    simple_at,
)
from tests.reference_knit import closure_steps


def box_objects(cover, box) -> tuple:
    """The objects of the cover at the shifts of the box, shift by shift."""
    return tuple((v, g) for g in box for v in cover.base_presentation.vertices)


def box_generators(cover, box) -> tuple:
    """The generators of the cover with both ends at shifts of the box."""
    inside = set(box)
    return tuple(
        (a.name, g)
        for g in box
        for a in cover.base_presentation.arrows
        if cover.group.op(g, a.weight) in inside
    )


def in_box(box, support) -> bool:
    """Does the support lie at shifts of the box?"""
    inside = set(box)
    return all(g in inside for _, g in support)


class _Pool:
    def __init__(self, class_cap):
        self.classes = []
        self.by_key = {}
        self.class_cap = class_cap

    def add(self, M):
        bucket = self.by_key.setdefault(frozenset(M.dims.items()), [])
        if any(find_iso(rep, M) is not None for rep in bucket):
            return False
        bucket.append(M)
        self.classes.append(M)
        if len(self.classes) > self.class_cap:
            raise CapExceeded(f"more than {self.class_cap} isomorphism classes")
        return True


def window_knit(carrier, box, dimcap=48, class_cap=512):
    pool = _Pool(class_cap)
    work = []

    def gather(module):
        for piece, _ in decompose(module):
            if (
                0 < piece.total_dim <= dimcap
                and in_box(box, piece.support)
                and pool.add(piece)
            ):
                work.append(piece)

    objects = box_objects(carrier, box)
    seeds = [simple_at(carrier, x) for x in objects]
    for builder in (projective_at, injective_at):
        seeds += [builder(carrier, x) for x in objects]
    for candidate in seeds:
        gather(candidate)
    while work:
        M = work.pop(0)
        for result in closure_steps(M):
            if not result.is_zero():
                gather(result)
    return pool.classes
