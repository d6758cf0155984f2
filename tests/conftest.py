import itertools
import json
import os

import pytest

from quivercover import load_presentation, smash_cover

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "golden")
# the shipped golden algebras, each also a fixture below
GOLDENS = ("ausl2", "ka2", "ka3", "loop2", "n32", "n32_z2", "sixcycle")


def golden_doc(name: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, name + ".json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def shift_box(group, halfwidth: int) -> tuple:
    """A reference window of shifts: the sorted box [-w..w]^rank of a free
    abelian group, or every element of a finite group."""
    if group.is_finite:
        return tuple(group.all_elements())
    return tuple(itertools.product(range(-halfwidth, halfwidth + 1), repeat=group.rank))


@pytest.fixture(scope="session")
def n32():
    """Cyclic 3-vertex Nakayama, rad^2 = 0, with its Z-grading."""
    return load_presentation(golden_doc("n32"))


@pytest.fixture(scope="session")
def loop2():
    """k[x]/(x^2) with its Z-grading (cover = infinite line, rad^2 = 0)."""
    return load_presentation(golden_doc("loop2"))


@pytest.fixture(scope="session")
def n32_z2():
    """N(3,2) graded by Z/2: the quotient of the six-cycle by its rotation."""
    return load_presentation(golden_doc("n32_z2"))


@pytest.fixture(scope="session")
def ka2():
    return load_presentation(golden_doc("ka2"))


@pytest.fixture(scope="session")
def ka3():
    return load_presentation(golden_doc("ka3"))


@pytest.fixture(scope="session")
def ausl2():
    """The Auslander algebra of k[x]/(x^2) (quiver 1 <-> 2, one composite zero)."""
    return load_presentation(golden_doc("ausl2"))


@pytest.fixture(scope="session")
def sixcycle():
    """The self-injective Nakayama algebra N(6,2) with its Z-grading."""
    return load_presentation(golden_doc("sixcycle"))


@pytest.fixture(scope="session")
def semisimple():
    return load_presentation(
        {
            "field": {"kind": "prime", "p": 32003},
            "group": {"kind": "free-abelian", "rank": 0},
            "vertices": ["1", "2"],
            "arrows": [],
            "relations": [],
            "nilbound": 0,
        }
    )


@pytest.fixture(scope="session")
def kronecker():
    return load_presentation(
        {
            "field": {"kind": "prime", "p": 32003},
            "group": {"kind": "free-abelian", "rank": 0},
            "vertices": ["1", "2"],
            "arrows": [
                {"id": "a", "src": "1", "tgt": "2", "weight": []},
                {"id": "b", "src": "1", "tgt": "2", "weight": []},
            ],
            "relations": [],
            "nilbound": 1,
        }
    )


@pytest.fixture(scope="session")
def n32_cover(n32):
    return smash_cover(n32)


@pytest.fixture(scope="session")
def loop2_cover(loop2):
    return smash_cover(loop2)
