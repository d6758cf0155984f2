"""Knit a Dynkin quiver's path algebra with `quivercover indecs` and check the
listing: one class per positive root, no numpy or sympy imported, and the
listing's sha256 equal to the recorded one.

    python .github/check_dynkin_listing.py DIAGRAM FIELD SHA256 [--p P]

DIAGRAM is a key of bench.workloads.DYNKIN_EDGES, FIELD is `prime` or
`rationals`, and --p replaces the prime of a prime field.  Exits nonzero
with the problems found.
"""

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench.checks import check_listing  # noqa: E402
from bench.workloads import DYNKIN_EDGES, dynkin_presentation, rank  # noqa: E402
from quivercover.cli import main  # noqa: E402


def check(diagram: str, field: str, sha256: str, p=None) -> list:
    doc = dynkin_presentation(diagram, field)
    if p is not None:
        doc["field"] = {"kind": "prime", "p": p}
    with tempfile.TemporaryDirectory() as tmp:
        source, target = os.path.join(tmp, "input.json"), os.path.join(tmp, "indecs.json")
        with open(source, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            code = main(["indecs", "--input", source, "--out", target])
        if code:
            return [f"indecs exited {code}"]
        with open(target, "rb") as fh:
            data = fh.read()
    problems = [f"indecs imported {name}" for name in sorted({"numpy", "sympy"} & set(sys.modules))]
    listing = json.loads(data)
    problems += check_listing(listing, DYNKIN_EDGES[diagram], rank(diagram), diagram)
    digest = hashlib.sha256(data).hexdigest()
    if digest != sha256:
        problems.append(f"listing sha256 {digest}, expected {sha256}")
    print(len(listing), "classes")
    return problems


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("diagram", choices=sorted(DYNKIN_EDGES))
    parser.add_argument("field", choices=("prime", "rationals"))
    parser.add_argument("sha256")
    parser.add_argument("--p", type=int, default=None, help="the prime of a prime field")
    args = parser.parse_args()
    sys.exit("; ".join(check(args.diagram, args.field, args.sha256, args.p)) or None)
