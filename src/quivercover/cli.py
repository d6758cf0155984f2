"""Command-line entry point: validation, orbit quotients, push-down,
indecomposable listings, single-claim checks, the verification suite, and
tilting-pair enumeration.

Exit codes: 0 pass/ok, 1 fail, 2 usage or input error, 3 not-applicable or
indeterminate.  A claim whose hypothesis is unmet, or that runs out of a cap
or a search bound, is reported not-applicable or indeterminate without
stopping the other claims.  JSON output is byte-deterministic for
identical inputs and seed; wall-clock timing is only recorded under --timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .cover import smash_cover
from .covering import (
    push_down,
    verify_ext_iso,
    verify_indecomposable_preservation,
    verify_orbit_bijection,
)
from .errors import (
    AmbientNotClusterTilting,
    CapExceeded,
    DecompositionInconclusive,
    HypothesisUnverified,
    IsoInconclusive,
    NotSquareFree,
    QuiverCoverError,
)
from .groups import Group
from .knitting import list_indecomposables
from .module_io import listing_to_json, module_from_json, module_to_json
from .modules import SubcategorySpec, iso_seed, validate_module
from .precluster import (
    _pushdown_spec,
    _tau_closure_candidate,
    verify_bongab,
    verify_equivalence_Z_Gp,
    verify_main1,
    verify_main2,
    verify_mod_pushdown,
    verify_Pn_pushdown,
    verify_selfinjectivity_criteria,
)
from .presentation import load_presentation_file, orbit_of_finite_action
from .report import CLAIM_IDS, INDETERMINATE, NOT_APPLICABLE, VerificationReport
from .tautilt import (
    enumerate_support_tilting_pairs,
    scan_tau_n_tilting_finite,
    verify_tilting_pushdown,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivercover",
        description="exact computations with Galois coverings of bound quiver algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="presentation JSON file")
        p.add_argument("--cap", type=int, default=32, help="closure/enumeration cap")
        p.add_argument("--seed", type=int, default=0xC0FFEE, help="deterministic seed")
        p.add_argument("--out", default=None, help="write the JSON result to a file")
        p.add_argument("--format", choices=("json", "text"), default="json")

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
    p.add_argument("--cover", action="store_true", help="one centred module per twist orbit of the covering")
    p.add_argument("--dimcap", type=int, default=48)

    p = sub.add_parser("check", help="verify one claim")
    common(p)
    p.add_argument("--claim", required=True, choices=CLAIM_IDS)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--dimcap", type=int, default=48)
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("suite", help="run every claim")
    common(p)
    p.add_argument("--all", action="store_true", help="run all claims (default)")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--dimcap", type=int, default=48)
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("enumerate-tilting", help="enumerate support tilting pairs")
    common(p)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--cover", action="store_true", help="enumerate upstairs orbit pairs")
    p.add_argument("--dimcap", type=int, default=48)
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
    return load_presentation_file(args.input)


def _canonical_subcategory(carrier, n: int, cap: int) -> SubcategorySpec:
    """The minimal candidate subcategory: the closure of the projectives and
    injectives under both higher translates.  This is n-precluster tilting
    iff the carrier admits any (G,)n-precluster tilting module, so it is the
    canonical instance for the transfer claims."""
    spec, stabilized = _tau_closure_candidate(carrier, n, cap)
    if not stabilized:
        raise CapExceeded(
            "the translate closure of projectives and injectives did not "
            f"stabilize within {cap} iterations; raise --cap"
        )
    return spec


def _aggregate(claim: str, instance: dict, reports: list, caps=None) -> VerificationReport:
    outcomes = [r.outcome for r in reports]
    if any(o is False for o in outcomes):
        outcome = False
    elif any(o == INDETERMINATE for o in outcomes):
        outcome = INDETERMINATE
    elif outcomes and all(o == NOT_APPLICABLE for o in outcomes):
        outcome = NOT_APPLICABLE
    else:
        outcome = True
    return VerificationReport(
        claim=claim,
        instance=instance,
        outcome=outcome,
        witnesses=[r.to_json_dict() for r in reports],
        caps=caps or {},
    )


# Errors a claim can raise on a valid input: an unmet hypothesis, or a cap
# or search bound that ran out.  Each becomes that claim's outcome.
_NOT_APPLICABLE_ERRORS = (HypothesisUnverified, NotSquareFree, AmbientNotClusterTilting)
_INDETERMINATE_ERRORS = (CapExceeded, DecompositionInconclusive, IsoInconclusive)


def run_claim(pres, claim: str, n: int, args) -> VerificationReport:
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
    except _NOT_APPLICABLE_ERRORS + _INDETERMINATE_ERRORS as exc:
        outcome = NOT_APPLICABLE if isinstance(exc, _NOT_APPLICABLE_ERRORS) else INDETERMINATE
        rep = VerificationReport(claim, {}, outcome, notes=[f"{type(exc).__name__}: {exc}"])
    rep.instance = {**instance, **(rep.instance or {})}
    return rep


def _verify(pres, cover, claim: str, n: int, args, instance: dict) -> VerificationReport:
    dimcap = getattr(args, "dimcap", 48)
    if claim == "Main1":
        U = _canonical_subcategory(cover, n, args.cap)
        rep = verify_main1(U, n)
    elif claim == "Main2":
        U = _canonical_subcategory(cover, n, args.cap)
        rep = verify_main2(_pushdown_spec(U), cover, n, dimcap=dimcap)
    elif claim == "DILemma":
        reps = list_indecomposables(cover, dimcap=dimcap)
        subs = []
        for X in reps:
            for Y in reps:
                for i in (0, 1, 2):
                    subs.append(verify_ext_iso(X, Y, i))
        rep = _aggregate(claim, instance, subs, caps={"pairs": len(reps) ** 2, "degrees": [0, 1, 2]})
    elif claim == "Corres":
        subs = [verify_orbit_bijection(cover, dimcap=dimcap)]
        for X in list_indecomposables(cover, dimcap=dimcap):
            subs.append(verify_indecomposable_preservation(X))
        rep = _aggregate(claim, instance, subs)
    elif claim == "PnPushdown":
        rep = verify_Pn_pushdown(cover, n, cap=args.cap)
    elif claim == "BonGab":
        rep = verify_bongab(pres, n)
    elif claim == "SelfinjCriteria":
        rep = verify_selfinjectivity_criteria(cover, n, cap=args.cap)
    elif claim == "ZGpEquivalence":
        rep = verify_equivalence_Z_Gp(_canonical_subcategory(pres, n, args.cap), n, dimcap=dimcap)
    elif claim == "ModPushdown":
        rep = verify_mod_pushdown(_canonical_subcategory(cover, n, args.cap), n, dimcap=dimcap)
    elif claim == "TiltingPushdown":
        rep = _run_tilting_pushdown(pres, cover, n, dimcap, instance)
    elif claim == "TiltingFinite":
        rep = scan_tau_n_tilting_finite(cover, n, dimcap=dimcap)
    else:  # pragma: no cover
        raise QuiverCoverError(f"unknown claim {claim}")
    return rep


def _tilting_ambient(carrier, dimcap) -> tuple:
    """(pool, ambient): the whole indecomposable pool, twist-closed on a
    covering carrier."""
    pool = list_indecomposables(carrier, dimcap=dimcap)
    return pool, SubcategorySpec(pool, twist_closed=carrier.is_cover, check=False)


def _run_tilting_pushdown(pres, cover, n, dimcap, instance) -> VerificationReport:
    pool_up, ambient_up = _tilting_ambient(cover, dimcap)
    pool_down, ambient_down = _tilting_ambient(pres, dimcap)
    pairs_up = enumerate_support_tilting_pairs(ambient_up, n, pool_up)
    pairs_down = enumerate_support_tilting_pairs(ambient_down, n, pool_down)
    subs = [
        verify_tilting_pushdown(pair, n, ambient_up, pool_up, ambient_down, pool_down)
        for pair in pairs_up
    ]
    agg = _aggregate("TiltingPushdown", instance, subs)
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
    with open(args.action, "r", encoding="utf-8") as fh:
        action = json.load(fh)
    for key in ("m", "vertex_map", "arrow_map"):
        if key not in action:
            raise QuiverCoverError(f"action file missing {key!r}")
    quotient = orbit_of_finite_action(
        pres, Group.cyclic(action["m"]), action["vertex_map"], action["arrow_map"]
    )
    _emit(args, quotient.to_json_dict())
    return 0


def _cmd_pushdown(args) -> int:
    pres = _load(args)
    cover = smash_cover(pres)
    with open(args.module, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    M = module_from_json(cover, doc)
    validate_module(M)
    _emit(args, module_to_json(push_down(M)))
    return 0


def _cmd_indecs(args) -> int:
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
    pres = _load(args)
    carrier = smash_cover(pres) if args.cover else pres
    pool, ambient = _tilting_ambient(carrier, args.dimcap)
    pairs = enumerate_support_tilting_pairs(ambient, args.n, pool)
    payload = {
        "ambient": listing_to_json(ambient.generators),
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
    token = iso_seed.set(args.seed)
    try:
        return handlers[args.command](args)
    except QuiverCoverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"FileNotFound: {exc}", file=sys.stderr)
        return 2
    finally:
        iso_seed.reset(token)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
