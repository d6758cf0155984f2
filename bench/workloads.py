"""The benchmark's workloads: generated Dynkin inputs and the CLI job lists.

A job is one `quivercover` command line.  `jobs(workload, root, seed)` gives
the job list of one pass; `setup_inputs(workload, root)` gives the inputs
that set-up validates.  Dynkin presentations are written by
`write_dynkin_inputs` into the benchmark's work directory.
"""

from __future__ import annotations

import json
import os

WORKLOADS = ("cover-suite-wide", "dynkin-knit", "rational-knit")

# Bourbaki labelling.  Every edge is oriented from the smaller to the larger
# label, so each diagram has a single orientation, recorded in README.md.
DYNKIN_EDGES = {
    "E6": [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6)],
    "E7": [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7)],
    "E8": [(1, 3), (3, 4), (2, 4), (4, 5), (5, 6), (6, 7), (7, 8)],
    "D8": [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8)],
}

FIELDS = {
    "prime": {"kind": "prime", "p": 32003},
    "rationals": {"kind": "rationals"},
}

KNIT_INPUTS = {
    "dynkin-knit": [("E6", "prime"), ("E7", "prime"), ("E8", "prime")],
    "rational-knit": [("E6", "rationals"), ("E7", "rationals"), ("D8", "rationals")],
}

SUITE_INPUTS = ("golden/n32.json", "golden/loop2.json")

WORK_DIR = os.path.join("bench", "work")


def rank(diagram: str) -> int:
    return max(max(e) for e in DYNKIN_EDGES[diagram])


def longest_path(edges, n: int) -> int:
    """Arrows in the longest directed path; edges point to larger labels."""
    depth = {v: 0 for v in range(1, n + 1)}
    for v in range(n, 0, -1):
        for a, b in edges:
            if a == v:
                depth[v] = max(depth[v], depth[b] + 1)
    return max(depth.values())


def dynkin_presentation(diagram: str, field: str) -> dict:
    """The path algebra of the oriented diagram: no relations, every arrow
    of weight 1, nilbound the length of the longest path."""
    edges = DYNKIN_EDGES[diagram]
    n = rank(diagram)
    return {
        "field": FIELDS[field],
        "group": {"kind": "free-abelian", "rank": 1},
        "vertices": [str(v) for v in range(1, n + 1)],
        "arrows": [
            {"id": f"a{a}_{b}", "src": str(a), "tgt": str(b), "weight": [1]}
            for a, b in edges
        ],
        "relations": [],
        "nilbound": longest_path(edges, n),
    }


def dynkin_path(root: str, diagram: str, field: str) -> str:
    return os.path.join(root, WORK_DIR, f"{diagram}-{field}.json")


def write_dynkin_inputs(root: str, workload: str) -> None:
    for diagram, field in KNIT_INPUTS.get(workload, ()):
        path = dynkin_path(root, diagram, field)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dynkin_presentation(diagram, field), fh, indent=1)


def setup_inputs(workload: str, root: str) -> list[str]:
    if workload == "cover-suite-wide":
        return [os.path.join(root, p) for p in SUITE_INPUTS]
    return [dynkin_path(root, d, f) for d, f in KNIT_INPUTS[workload]]


def jobs(workload: str, root: str, seed: int) -> list[dict]:
    """One pass: a list of {"id", "kind", "argv", "expect"} entries.

    `argv` is the argument list after `quivercover`; the program's own
    `--seed` is the benchmark's seed.  `expect` names what the answer
    check compares against.
    """
    if workload == "cover-suite-wide":
        return [
            {
                "id": os.path.splitext(os.path.basename(p))[0],
                "kind": "suite",
                "argv": ["suite", "--input", os.path.join(root, p), "--n", "1",
                         "--seed", str(seed)],
                "expect": os.path.splitext(os.path.basename(p))[0],
            }
            for p in SUITE_INPUTS
        ]
    return [
        {
            "id": f"{d}-{f}",
            "kind": "indecs",
            "argv": ["indecs", "--input", dynkin_path(root, d, f), "--seed", str(seed)],
            "expect": d,
        }
        for d, f in KNIT_INPUTS[workload]
    ]
