"""Command-line entry point: validation, orbit quotients, push-down,
indecomposable listings, single-claim checks, the verification suite, and
tilting-pair enumeration.

Exit codes: 0 pass/ok, 1 fail, 2 usage or input error, 3 not-applicable or
indeterminate.  A claim whose declared hypothesis is unmet raises
HypothesisUnverified and is reported not-applicable with its own note and
witnesses; any other error a claim raises on a valid input is noted as
`Name: message`, not-applicable for an ambient that is not n-cluster
tilting and indeterminate for a cap or search bound that ran out.  Neither
stops the other claims.  --dimcap caps the knit and the tau_n closures
alike.  JSON output is byte-deterministic for identical inputs and seed;
wall-clock timing is only recorded under --timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

# Only what parsing, loading and reporting need is imported here.  Each
# command imports the layers it runs, so `validate` loads no module layer
# and `indecs` no precluster or tilting one.
from .carrier import ISO_SEED
from .errors import (
    AmbientNotClusterTilting,
    CapExceeded,
    DecompositionInconclusive,
    HypothesisUnverified,
    QuiverCoverError,
    SchemaError,
)
from .groups import Group
from .presentation import load_presentation_file, orbit_of_finite_action, read_json
from .report import CLAIM_IDS, INDETERMINATE, NOT_APPLICABLE, VerificationReport


def _degree(text: str) -> int:
    """The n of tau_n: an integer, at least 1 (tau_1 is tau)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"n must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercover",
        description="exact computations with Galois coverings of bound quiver algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="presentation JSON file")
        p.add_argument("--seed", type=int, default=ISO_SEED, help="deterministic seed")
        p.add_argument("--out", default=None, help="write the JSON result to a file")
        p.add_argument("--format", choices=("json", "text"), default="json")

    def cap(p):
        p.add_argument("--cap", type=int, default=32, help="closure/enumeration cap")

    def degree(p):
        p.add_argument("--n", type=_degree, default=1, help="the n of tau_n, at least 1")

    def dimcap(p):
        p.add_argument(
            "--dimcap", type=int, default=48,
            help="largest indecomposable dimension; a larger one stops the knit",
        )

    p = sub.add_parser("validate", help="validate a presentation document")
    common(p)

    p = sub.add_parser("orbit", help="orbit quotient by a finite free action")
    common(p)
    p.add_argument("--action", required=True, help="action JSON file")

    p = sub.add_parser("pushdown", help="push a covering module down")
    common(p)
    p.add_argument("--module", required=True, help="covering module JSON file")

    p = sub.add_parser("indecs", help="list indecomposables up to isomorphism")
    common(p)
    cap(p)
    p.add_argument("--cover", action="store_true", help="one centred module per twist orbit of the covering")
    dimcap(p)

    p = sub.add_parser("check", help="verify one claim")
    common(p)
    cap(p)
    p.add_argument("--claim", required=True, choices=CLAIM_IDS)
    degree(p)
    dimcap(p)
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("suite", help="run every claim")
    common(p)
    cap(p)
    degree(p)
    dimcap(p)
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("enumerate-tilting", help="enumerate support tilting pairs")
    common(p)
    degree(p)
    p.add_argument("--cover", action="store_true", help="enumerate upstairs orbit pairs")
    dimcap(p)
    return parser


def _emit(args, payload) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = _render_text(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _render_text(payload, indent=0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_render_text(v, indent) for v in payload) or f"{pad}(empty)"
    return f"{pad}{payload}"


def _fingerprint(pres) -> str:
    canon = json.dumps(pres.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _load(args):
    return load_presentation_file(args.input, args.seed)


def _canonical_subcategory(carrier, n: int, cap: int, dimcap: int = 48) -> list:
    """The minimal candidate subcategory: the closure of the projectives and
    injectives under both higher translates.  This is n-precluster tilting
    iff the carrier admits any (G,)n-precluster tilting module, so it is the
    canonical instance for the transfer claims."""
    from .precluster import _tau_closure_candidate

    classes, stabilized = _tau_closure_candidate(carrier, n, cap, dimcap)
    if not stabilized:
        raise CapExceeded(
            "the translate closure of projectives and injectives did not "
            f"stabilize within {cap} iterations; raise --cap"
        )
    return classes


def _aggregate(reports: list, caps=None) -> VerificationReport:
    """One report over sub-reports, each of which answers True or False."""
    return VerificationReport(
        outcome=all(r.passed for r in reports),
        witnesses=[r.to_json_dict() for r in reports],
        caps=caps or {},
    )


def run_claim(pres, claim: str, n: int, args) -> VerificationReport:
    """The claim's report: the one place that writes a report's claim and
    instance, and that turns an error a claim raises on a valid input into
    its outcome, as the module docstring says."""
    from .cover import smash_cover

    cover = smash_cover(pres)
    instance = {
        "input": _fingerprint(pres),
        "claim": claim,
        "n": n,
        "group": pres.group.to_json(),
        "seed": args.seed,
    }
    try:
        rep = _verify(pres, cover, claim, n, args, instance)
    except HypothesisUnverified as exc:
        rep = VerificationReport(outcome=NOT_APPLICABLE, witnesses=exc.witnesses, notes=[str(exc)])
    except (AmbientNotClusterTilting, CapExceeded, DecompositionInconclusive) as exc:
        outcome = NOT_APPLICABLE if isinstance(exc, AmbientNotClusterTilting) else INDETERMINATE
        rep = VerificationReport(outcome=outcome, notes=[f"{type(exc).__name__}: {exc}"])
    rep.claim, rep.instance = claim, instance
    return rep


def _verify(pres, cover, claim: str, n: int, args, instance: dict) -> VerificationReport:
    """The claim's verdict on this input.  It adds to the instance what it
    builds the verdict on: the generator count of U or V, or the carrier."""
    from .covering import (
        verify_ext_iso,
        verify_indecomposable_preservation,
        verify_orbit_bijection,
    )
    from .knitting import list_indecomposables
    from .precluster import (
        _pushdown_spec,
        verify_bongab,
        verify_equivalence_Z_Gp,
        verify_main1,
        verify_main2,
        verify_mod_pushdown,
        verify_Pn_pushdown,
        verify_selfinjectivity_criteria,
    )
    from .tautilt import scan_tau_n_tilting_finite

    dimcap = args.dimcap
    if claim in ("Main1", "Main2", "ZGpEquivalence", "ModPushdown"):
        U = _canonical_subcategory(pres if claim == "ZGpEquivalence" else cover, n, args.cap, dimcap)
        if claim == "Main2":
            U = _pushdown_spec(U)  # V, the downstairs subcategory
        instance["generators"] = len(U)
    elif claim in ("PnPushdown", "BonGab", "SelfinjCriteria", "TiltingFinite"):
        instance["carrier"] = (pres if claim == "BonGab" else cover).describe()

    if claim == "Main1":
        rep = verify_main1(U, n)
    elif claim == "Main2":
        rep = verify_main2(U, n, dimcap=dimcap)
    elif claim == "DILemma":
        reps = list_indecomposables(cover, dimcap=dimcap)
        subs = []
        for X in reps:
            for Y in reps:
                for i in (0, 1, 2):
                    subs.append(verify_ext_iso(X, Y, i))
        rep = _aggregate(subs, caps={"pairs": len(reps) ** 2, "degrees": [0, 1, 2]})
    elif claim == "Corres":
        subs = [verify_orbit_bijection(cover, dimcap=dimcap)]
        for X in list_indecomposables(cover, dimcap=dimcap):
            subs.append(verify_indecomposable_preservation(X))
        rep = _aggregate(subs)
    elif claim == "PnPushdown":
        rep = verify_Pn_pushdown(cover, n, cap=args.cap, dimcap=dimcap)
    elif claim == "BonGab":
        rep = verify_bongab(pres, n)
    elif claim == "SelfinjCriteria":
        rep = verify_selfinjectivity_criteria(cover, n, cap=args.cap, dimcap=dimcap)
    elif claim == "ZGpEquivalence":
        rep = verify_equivalence_Z_Gp(U, n, dimcap=dimcap)
    elif claim == "ModPushdown":
        rep = verify_mod_pushdown(U, n, dimcap=dimcap)
    elif claim == "TiltingPushdown":
        rep = _run_tilting_pushdown(pres, cover, n, dimcap)
    elif claim == "TiltingFinite":
        rep = scan_tau_n_tilting_finite(cover, n, dimcap=dimcap)
    else:  # pragma: no cover
        raise QuiverCoverError(f"unknown claim {claim}")
    return rep


def _tilting_graph(carrier, n: int, dimcap: int):
    """The graph of the whole indecomposable pool as the ambient, one class
    per twist orbit on a covering carrier, certified n-cluster tilting."""
    from .knitting import list_indecomposables
    from .tautilt import TiltingGraph

    pool = list_indecomposables(carrier, dimcap=dimcap)
    return TiltingGraph(pool, n, pool)


def _run_tilting_pushdown(pres, cover, n, dimcap) -> VerificationReport:
    from .tautilt import enumerate_support_tilting_pairs, verify_tilting_pushdown

    up = _tilting_graph(cover, n, dimcap)
    down = _tilting_graph(pres, n, dimcap)
    pairs_up = enumerate_support_tilting_pairs(up)
    pairs_down = enumerate_support_tilting_pairs(down)
    subs = [verify_tilting_pushdown(pair, up, down) for pair in pairs_up]
    agg = _aggregate(subs)
    agg.witnesses.append(
        {"upstairs_orbit_pairs": len(pairs_up), "downstairs_pairs": len(pairs_down)}
    )
    if len(pairs_up) != len(pairs_down):
        agg.outcome = False
        agg.notes.append("push-down is not bijective on support tilting pairs")
    return agg


# ---------------------------------------------------------------------------
# command implementations


def _cmd_validate(args) -> int:
    pres = _load(args)
    _emit(
        args,
        {
            "ok": True,
            "fingerprint": _fingerprint(pres),
            "vertices": len(pres.vertices),
            "arrows": len(pres.arrows),
            "relations": len(pres.relations),
            "nilbound": pres.nilbound,
            "tight_nilbound": pres.ell_star,
            "total_dimension": pres.total_dimension(),
            "square_free": pres.is_square_free(),
        },
    )
    return 0


def _cmd_orbit(args) -> int:
    pres = _load(args)
    action = read_json(args.action)
    for key in ("m", "vertex_map", "arrow_map"):
        if not isinstance(action, dict) or key not in action:
            raise SchemaError(f"action file missing {key!r}")
    quotient = orbit_of_finite_action(
        pres, Group.cyclic(action["m"]), action["vertex_map"], action["arrow_map"]
    )
    _emit(args, quotient.to_json_dict())
    return 0


def _cmd_pushdown(args) -> int:
    from .cover import smash_cover
    from .covering import push_down
    from .module_io import module_from_json, module_to_json
    from .modules import validate_module

    pres = _load(args)
    cover = smash_cover(pres)
    M = module_from_json(cover, read_json(args.module))
    validate_module(M)
    _emit(args, module_to_json(push_down(M)))
    return 0


def _cmd_indecs(args) -> int:
    from .cover import smash_cover
    from .knitting import list_indecomposables
    from .module_io import listing_to_json

    pres = _load(args)
    carrier = smash_cover(pres) if args.cover else pres
    mods = list_indecomposables(carrier, dimcap=args.dimcap, class_cap=max(args.cap, 32) * 16)
    _emit(args, listing_to_json(mods))
    return 0


def _cmd_check(args) -> int:
    pres = _load(args)
    t0 = time.monotonic()
    rep = run_claim(pres, args.claim, args.n, args)
    if args.timing:
        rep.timing = round(time.monotonic() - t0, 3)
    _emit(args, rep.to_json_dict())
    return rep.exit_code()


def _cmd_suite(args) -> int:
    pres = _load(args)
    reports = []
    for claim in CLAIM_IDS:
        t0 = time.monotonic()
        rep = run_claim(pres, claim, args.n, args)
        if args.timing:
            rep.timing = round(time.monotonic() - t0, 3)
        reports.append(rep)
    payload = [r.to_json_dict() for r in reports]
    _emit(args, payload)
    statuses = {True: "pass", False: "FAIL"}
    for r in reports:
        print(f"{r.claim}: {statuses.get(r.outcome, r.outcome)}", file=sys.stderr)
    codes = [r.exit_code() for r in reports]
    if 1 in codes:
        return 1
    if 3 in codes:
        return 3
    return 0


def _cmd_enumerate_tilting(args) -> int:
    from .cover import smash_cover
    from .module_io import listing_to_json
    from .tautilt import enumerate_support_tilting_pairs

    pres = _load(args)
    carrier = smash_cover(pres) if args.cover else pres
    graph = _tilting_graph(carrier, args.n, args.dimcap)
    pairs = enumerate_support_tilting_pairs(graph)
    payload = {
        "ambient": listing_to_json(graph.ambient),
        "projectives": [str(x) for x in carrier.fundamental_domain()],
        "pairs": [
            {"module_ids": list(msel), "projective_ids": list(psel)} for msel, psel in pairs
        ],
    }
    _emit(args, payload)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    handlers = {
        "validate": _cmd_validate,
        "orbit": _cmd_orbit,
        "pushdown": _cmd_pushdown,
        "indecs": _cmd_indecs,
        "check": _cmd_check,
        "suite": _cmd_suite,
        "enumerate-tilting": _cmd_enumerate_tilting,
    }
    try:
        return handlers[args.command](args)
    except QuiverCoverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"FileNotFound: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
