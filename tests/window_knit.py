"""Reference: the window knit that the orbit knit replaced.

`window_knit` lists every indecomposable whose support lies in the window,
one module per isomorphism class (twists are different classes), seeded
from every window object.  Tests check the orbit knit and the window counts
in the reports against it.
"""

from quivercover.errors import CapExceeded
from quivercover.knitting import _closure_steps
from quivercover.modules import (
    _certified_indec_iso,
    decompose,
    injective_at,
    projective_at,
    simple_at,
)


class _Pool:
    def __init__(self, class_cap):
        self.classes = []
        self.by_key = {}
        self.class_cap = class_cap

    def add(self, M):
        bucket = self.by_key.setdefault(M.dims_key(), [])
        if any(_certified_indec_iso(rep, M) for rep in bucket):
            return False
        bucket.append(M)
        self.classes.append(M)
        if len(self.classes) > self.class_cap:
            raise CapExceeded(f"more than {self.class_cap} isomorphism classes")
        return True


def window_knit(carrier, dimcap=48, class_cap=512):
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
    return pool.classes
