"""Precluster-tilting checkers and the covering-transfer verifiers:
generator-cogenerator tests, the higher-translate closures, perpendicular
categories, Gorenstein projectivity over endomorphism categories,
n-minimal Auslander-Gorenstein detection, and the theorem verifiers."""

from __future__ import annotations

from dataclasses import dataclass

from .cover import CoverCarrier, smash_cover
from .endo import EndoCarrier, phi_module
from .errors import HypothesisUnverified
from .field import invert
from .homology import (
    _evaluation_map,
    dominant_dimension_upto,
    inj_dim_upto,
    kernel_module,
    tau_n,
    tau_n_minus,
    yoneda_cokernel,
)
from .knitting import _kept, close, list_indecomposables
from .modules import (
    FDModule,
    ModMorphism,
    decompose,
    find_iso,
    hom_dim,
    injective_at,
    is_isomorphic,
    morphism_coords,
    projective_at,
)
from .covering import (
    class_index,
    ext_vanishes,
    hom_twist_sum,
    match_pushdowns,
    push_down,
    push_down_morphism,
)
from .report import INDETERMINATE, VerificationReport


TRANSLATE_NOTE = (
    "higher translates are tau o syzygy^(n-1) and tau- o cosyzygy^(n-1); an "
    "(n+1) exponent convention would contradict tau_1 = tau and is not used"
)


# ---------------------------------------------------------------------------
# verdicts


@dataclass
class PreclusterVerdict:
    generator_cogenerator: bool
    tau_stable: bool
    tau_minus_stable: bool
    ext_vanishing: bool
    finite_type: bool
    n: int

    @property
    def passes(self) -> bool:
        return (
            self.generator_cogenerator
            and self.tau_stable
            and self.tau_minus_stable
            and self.ext_vanishing
            and self.finite_type
        )

    def to_json(self) -> dict:
        return {
            "generator_cogenerator": self.generator_cogenerator,
            "tau_stable": self.tau_stable,
            "tau_minus_stable": self.tau_minus_stable,
            "ext_vanishing": self.ext_vanishing,
            "finite_type": self.finite_type,
            "n": self.n,
        }


# ---------------------------------------------------------------------------
# the Def n-precluster conditions


def is_generator_cogenerator(U: list) -> bool:
    carrier = U[0].carrier
    for x in carrier.fundamental_domain():
        if class_index(projective_at(carrier, x), U) is None:
            return False
        if class_index(injective_at(carrier, x), U) is None:
            return False
    return True


def _translate_stable(U: list, n: int, minus: bool) -> bool:
    for M in U:
        T = tau_n_minus(M, n) if minus else tau_n(M, n)
        if T.is_zero():
            continue
        for piece, _ in decompose(T):
            if class_index(piece, U) is None:
                return False
    return True


def is_n_precluster(U: list, n: int) -> PreclusterVerdict:
    return PreclusterVerdict(
        generator_cogenerator=is_generator_cogenerator(U),
        tau_stable=_translate_stable(U, n, minus=False),
        tau_minus_stable=_translate_stable(U, n, minus=True),
        ext_vanishing=all(ext_vanishes(M, N, range(1, n)) for M in U for N in U),
        finite_type=True,  # a finite generator list, closed under twist by construction
        n=n,
    )


# ---------------------------------------------------------------------------
# the canonical subcategories P_n and I_n


def compute_Pn(carrier, n: int, cap: int = 32, dimcap: int = 48) -> tuple:
    """Closure of the projectives under the inverse higher translate.

    Returns (classes, stabilized); raises CapExceeded on a class above dimcap."""
    return _translate_closure(carrier, "projective", n, cap, dimcap)


def compute_In(carrier, n: int, cap: int = 32, dimcap: int = 48) -> tuple:
    """Closure of the injectives under the higher translate, as compute_Pn."""
    return _translate_closure(carrier, "injective", n, cap, dimcap)


def _translate_closure(carrier, sides: str, n: int, cap: int, dimcap: int = 48) -> tuple:
    """(a fresh list of its classes, stabilized): the closure of the
    projectives under τ_n⁻ (sides "projective"), of the injectives under
    τ_n ("injective"), or of both under both, τ_n first ("both").  The
    carrier keeps it, or the CapExceeded it raised, per (sides, n, cap,
    dimcap), so every claim of a suite shares each closure."""

    def build():
        # looked up on each call, so that the benchmark's tracer, which
        # rebinds these names in this module, sees the calls
        builders, steps = {
            "projective": ((projective_at,), (tau_n_minus,)),
            "injective": ((injective_at,), (tau_n,)),
            "both": ((projective_at, injective_at), (tau_n, tau_n_minus)),
        }[sides]
        seeds = [at(carrier, x) for at in builders for x in carrier.fundamental_domain()]
        return close(seeds, lambda M: (step(M, n) for step in steps), rounds=cap, dimcap=dimcap)

    classes, stabilized = _kept(carrier, "tau_closure", (sides, n, cap, dimcap), build)
    return list(classes), stabilized


def verify_Pn_pushdown(cover: CoverCarrier, n: int, cap: int = 32, dimcap: int = 48) -> VerificationReport:
    """Push-downs of the upstairs P_n classes biject with the downstairs ones."""
    up, up_stab = compute_Pn(cover, n, cap, dimcap)
    down, down_stab = compute_Pn(cover.base_presentation, n, cap, dimcap)
    caps = {
        "cap": cap,
        "upstairs_stabilized": up_stab,
        "downstairs_stabilized": down_stab,
    }
    if not (up_stab and down_stab):
        return VerificationReport(
            outcome=INDETERMINATE,
            caps=caps,
            notes=["closure did not stabilize within the cap"],
        )
    found = match_pushdowns(up, down, distinct=True)
    matching = ["decomposable-pushdown" if j == "decomposable" else j for j in found]
    matched = sum(isinstance(j, int) for j in found)
    ok = matched == len(up) == len(down)
    return VerificationReport(
        outcome=ok,
        witnesses=[
            {
                "upstairs_classes": len(up),
                "downstairs_classes": len(down),
                "matching": matching,
            }
        ],
        caps=caps,
        notes=[TRANSLATE_NOTE],
    )


# ---------------------------------------------------------------------------
# perpendicular categories


def perpendiculars(U: list, pool: list, n: int) -> tuple:
    """(left, right): the pool members M with Ext^i(M, U) = 0, and those with
    Ext^i(U, M) = 0, for 0 < i < n (over every twist on a covering carrier)."""
    degrees = range(1, n)
    left = [M for M in pool if all(ext_vanishes(M, G, degrees) for G in U)]
    right = [M for M in pool if all(ext_vanishes(G, M, degrees) for G in U)]
    return left, right


def compute_Z(U: list, pool: list, n: int) -> tuple:
    """(Z(U) as a list of pool classes, symmetric: bool).

    Z = the common left/right (n-1)-perpendicular of U inside the pool; the
    left and right computations are performed independently and compared.
    Asymmetry refutes the precluster hypothesis and is reported by callers."""
    left, right = perpendiculars(U, pool, n)
    symmetric = [id(m) for m in left] == [id(m) for m in right]
    return left, symmetric


# ---------------------------------------------------------------------------
# Gorenstein projectivity and nMAG checks


def check_nMAG(carrier, n: int) -> VerificationReport:
    """dom.dim >= n+1 and injective dimension of every projective <= n+1.

    The claim tag "nMAG" is internal (not a CLI claim); claim-level verifiers
    embed these reports as witnesses."""
    domdim = dominant_dimension_upto(carrier, n + 1)
    injdims = []
    ok_inj = True
    for x in carrier.fundamental_domain():
        b = inj_dim_upto(projective_at(carrier, x), n + 1)
        injdims.append(str(b))
        if not b.at_most(n + 1):
            ok_inj = False
    ok_dom = domdim.at_least_value(n + 1)
    return VerificationReport(
        claim="BonGab",
        instance={"n": n, "carrier": carrier.describe(), "check": "nMAG"},
        outcome=bool(ok_dom and ok_inj),
        witnesses=[{"dominant_dimension": str(domdim), "proj_injective_dimensions": injdims}],
    )


def is_gorenstein_projective(E: EndoCarrier, M: FDModule, n: int) -> bool:
    """Ext^i(M, projectives) = 0 for 1 <= i <= n+1 over an (n+1)-Gorenstein
    endomorphism category (hypothesis machine-checked first)."""
    hyp = E.memo("nmag")
    if n not in hyp:
        hyp[n] = check_nMAG(E, n).passed
    if not hyp[n]:
        raise HypothesisUnverified(
            "the endomorphism category is not n-minimal Auslander-Gorenstein; "
            "the finite-horizon Gorenstein-projectivity criterion does not apply"
        )
    return all(ext_vanishes(M, projective_at(E, j), range(1, n + 2)) for j in E.objects)


# ---------------------------------------------------------------------------
# theorem verifiers


def _pushdown_spec(U: list) -> list:
    """The classes of the summands of the push-downs of U."""
    return close(map(push_down, U), None, rounds=0)[0]


def _require_precluster(U: list, n: int, key: str) -> PreclusterVerdict:
    """U's n-precluster verdict; raises HypothesisUnverified, with the
    verdict under key as its witness, when U fails it."""
    verdict = is_n_precluster(U, n)
    if not verdict.passes:
        which = "" if key == "precluster" else f"{key} "
        raise HypothesisUnverified(
            f"the {which}subcategory fails the n-precluster hypothesis", {key: verdict.to_json()}
        )
    return verdict


def verify_main1(U: list, n: int) -> VerificationReport:
    """Push-down of an n-precluster tilting subcategory stays one."""
    up = _require_precluster(U, n, "upstairs")
    V = _pushdown_spec(U)
    down = is_n_precluster(V, n)
    return VerificationReport(
        outcome=down.passes,
        witnesses=[{"upstairs": up.to_json(), "downstairs": down.to_json(),
                    "downstairs_classes": len(V)}],
    )


def verify_main2(V: list, n: int, dimcap: int = 48) -> VerificationReport:
    """The preimage of a downstairs n-precluster tilting subcategory is one,
    over the covering of V's carrier."""
    down = _require_precluster(V, n, "downstairs")
    # the twists in one orbit push down to the same generator
    classes = list_indecomposables(smash_cover(V[0].carrier), dimcap=dimcap)
    found = match_pushdowns(classes, V, distinct=False)
    preimage = [X for X, j in zip(classes, found) if isinstance(j, int)]
    if len({j for j in found if isinstance(j, int)}) != len(V):
        raise HypothesisUnverified("V is not inside the push-down image of the orbit pool")
    up = is_n_precluster(preimage, n)
    return VerificationReport(
        outcome=up.passes,
        witnesses=[
            {
                "downstairs": down.to_json(),
                "upstairs": up.to_json(),
                "preimage_orbit_classes": len(preimage),
            }
        ],
        caps={"dimcap": dimcap},
    )


def verify_bongab(pres, n: int) -> VerificationReport:
    """nMAG transfers between the base and the covering (square-free case)."""
    if not pres.is_square_free():
        raise HypothesisUnverified("NotSquareFree: the square-free hypothesis is not met")
    base = check_nMAG(pres, n)
    cover = check_nMAG(smash_cover(pres), n)
    return VerificationReport(
        outcome=(base.outcome == cover.outcome),
        witnesses=[{"base_nMAG": base.to_json_dict(), "cover_nMAG": cover.to_json_dict()}],
    )


def verify_selfinjectivity_criteria(carrier, n: int, cap: int = 32, dimcap: int = 48) -> VerificationReport:
    """The five equivalent characterizations evaluated independently.

    Conditions with a non-stabilizing closure are marked indeterminate; the
    pass verdict asserts equality of all determinate truth values (and, for
    covering carriers, agreement with the base verdict)."""
    conds: dict = {}
    notes = [
        "finite/locally finite type read as cap-stabilized closures per "
        "fundamental domain of orbit representatives",
        TRANSLATE_NOTE,
    ]

    # (i) existence of an (G,) n-precluster tilting module: the tau-closure of
    # projectives+injectives is the minimal candidate; it works iff anything does
    cand, stab = _translate_closure(carrier, "both", n, cap, dimcap)
    if not stab:
        conds["i"] = INDETERMINATE
    else:
        conds["i"] = is_n_precluster(cand, n).passes

    In, In_stab = compute_In(carrier, n, cap, dimcap)
    Pn, Pn_stab = compute_Pn(carrier, n, cap, dimcap)
    projs = [projective_at(carrier, x) for x in carrier.fundamental_domain()]
    injs = [injective_at(carrier, x) for x in carrier.fundamental_domain()]

    def ext_free(members, targets) -> bool:
        return all(
            ext_vanishes(M, T, range(1, n)) for M in members for T in targets
        )

    if not In_stab:
        conds["ii"] = conds["iii"] = INDETERMINATE
    else:
        ext_ok = ext_free(In, In)
        conds["ii"] = ext_free(In, projs) and ext_ok
        conds["iii"] = all(class_index(P, In) is not None for P in projs) and ext_ok
    if not Pn_stab:
        conds["iv"] = conds["v"] = INDETERMINATE
    else:
        ext_ok = ext_free(Pn, Pn)
        conds["iv"] = ext_free(injs, Pn) and ext_ok
        conds["v"] = all(class_index(I, Pn) is not None for I in injs) and ext_ok
    determinate = [v for v in conds.values() if v is not INDETERMINATE]
    if not determinate:
        outcome = INDETERMINATE
    else:
        outcome = all(v == determinate[0] for v in determinate)
    witnesses = [{"conditions": {k: v for k, v in conds.items()}}]
    if carrier.is_cover and outcome is True:
        base_rep = verify_selfinjectivity_criteria(carrier.base_presentation, n, cap, dimcap)
        agree = base_rep.witnesses[0]["conditions"].get("i")
        witnesses.append({"base_conditions": base_rep.witnesses[0]["conditions"]})
        if agree is not INDETERMINATE and conds["i"] is not INDETERMINATE:
            outcome = outcome and (agree == conds["i"])
    return VerificationReport(
        outcome=outcome,
        witnesses=witnesses,
        caps={"cap": cap},
        notes=notes,
    )


def verify_equivalence_Z_Gp(U: list, n: int, dimcap: int = 48) -> VerificationReport:
    """The perpendicular category embeds as the Gorenstein projectives of mod-U.

    Checks, over the full indecomposable pool of a base carrier: every
    perpendicular member maps to a Gorenstein projective functor; the map is
    injective on isomorphism classes and preserves hom dimensions; and every
    Gorenstein projective over the endomorphism category is hit."""
    carrier = U[0].carrier
    if carrier.is_cover:
        raise HypothesisUnverified(
            "checked on base carriers only; mod-U of a cover is not yet "
            "knitted one twist orbit at a time"
        )
    _require_precluster(U, n, "precluster")
    pool = list_indecomposables(carrier, dimcap=dimcap)
    Z, symmetric = compute_Z(U, pool, n)
    notes = ["perpendicular degrees 0<i<n tested against the generator list"]
    if not symmetric:
        return VerificationReport(
            outcome=False,
            witnesses=[{"left_right_perp_symmetric": False}],
            notes=notes + ["left and right perpendicular pools differ"],
        )
    E = EndoCarrier(U)
    images = []
    ok = True
    for M in Z:
        PhiM = phi_module(E, M)
        # Yoneda sanity: dim Phi(M)(U_i) = dim Hom(U_i, M) holds by construction
        if not is_gorenstein_projective(E, PhiM, n):
            ok = False
        images.append(PhiM)
    # injectivity on iso-classes and hom-dimension preservation
    table_ok = True
    for i, M in enumerate(Z):
        for j, N in enumerate(Z):
            if hom_dim(M, N) != hom_dim(images[i], images[j]):
                table_ok = False
        if class_index(images[i], images[:i]) is not None:
            ok = False
    # surjectivity onto the Gorenstein projectives, up to the cap
    E_pool = list_indecomposables(E, dimcap=dimcap)
    gp = [X for X in E_pool if is_gorenstein_projective(E, X, n)]
    matched = sum(class_index(X, images) is not None for X in gp)
    surjective = matched == len(gp) and len(gp) == len(images)
    return VerificationReport(
        outcome=bool(ok and table_ok and surjective),
        witnesses=[
            {
                "Z_pool": len(Z),
                "Gp_pool": len(gp),
                "hom_tables_equal": table_ok,
                "all_images_gorenstein_projective": ok,
                "surjective_up_to_cap": surjective,
            }
        ],
        caps={"dimcap": dimcap},
        notes=notes,
    )


def _match_down(V: list, T: FDModule):
    """(j, iso P_*(T) -> V_j) for the downstairs class V_j that T pushes
    down to, or None."""
    P = push_down(T)
    for j, gen in enumerate(V):
        iso = find_iso(P, gen)
        if iso is not None:
            return j, iso
    return None


def _mod_pushdown_of_phi(E_down: EndoCarrier, V: list, M: FDModule, U: list):
    """mod-P_* applied to Phi(M): push a two-step U-presentation of M down.

    The presentation comes from right approximations by U (epi because U
    contains the projectives); each of its summands, a twist of a generator
    of U, is matched to the downstairs generator V_j it pushes down to, the
    object j of E_down."""
    f0, p0, offsets0 = _evaluation_map(U, M)
    K, incl = kernel_module(f0)
    if K.is_zero():
        p1, comps01 = [], []
    else:
        f1, p1, offsets1 = _evaluation_map(U, K)
        d = incl @ f1
        # components d_{kj}: piece1_j -> piece0_k, the blocks of d at the summand offsets
        comps01 = [
            [_block(d, B, o1, A, o0) for B, o1 in zip(p1, offsets1)]
            for A, o0 in zip(p0, offsets0)
        ]
    # a summand is a twist of a generator, which the caller matched downstairs
    down = {}
    for T in p0 + p1:
        down[id(T)] = down.get(id(T)) or _match_down(V, T)
    down0, down1 = [down[id(T)] for T in p0], [down[id(T)] for T in p1]

    # downstairs: cokernel of the pushed matrix between E_down projectives
    combos = {}
    for k, (o0, iso0) in enumerate(down0):
        for j, (o1, iso1) in enumerate(down1):
            # downstairs morphism between pushed generators
            down_mor = iso0 @ push_down_morphism(comps01[k][j]) @ _invert_iso(iso1)
            coords = morphism_coords(E_down.basis(o1, o0), down_mor)
            combos[(j, k)] = {(o1, o0, r): c for r, c in enumerate(coords.entries()) if c != 0}
    return yoneda_cokernel(E_down, [o for o, _ in down1], [o for o, _ in down0], combos)


def _block(d: ModMorphism, B: FDModule, b_off: dict, A: FDModule, a_off: dict) -> ModMorphism:
    """The component B -> A of d, for summands of its source and target at these offsets."""
    return ModMorphism(B, A, {
        x: d.vertex(x)[a_off[x] : a_off[x] + A.dim(x), b_off[x] : b_off[x] + B.dim(x)]
        for x in B.support if x in a_off
    })


def _invert_iso(phi):
    mats = {}
    for x in phi.src.support:
        inv = invert(phi.vertex(x))
        mats[x] = inv
    return ModMorphism(phi.tgt, phi.src, mats)


def verify_mod_pushdown(U: list, n: int, dimcap: int = 48) -> VerificationReport:
    """The induced functor between the endomorphism categories: both sides are
    n-minimal Auslander-Gorenstein, the covering hom-isomorphism holds on the
    generating set, and the functor square with the perpendicular embedding
    commutes on the indecomposable pool."""
    carrier = U[0].carrier
    if not carrier.is_cover:
        raise HypothesisUnverified("needs a covering carrier with a twist-closed subcategory")
    _require_precluster(U, n, "upstairs")
    V = _pushdown_spec(U)
    E_down = EndoCarrier(V)
    if any(_match_down(V, gen) is None for gen in U):
        return VerificationReport(
            outcome=False,
            notes=["a pushed generator did not match the downstairs category"],
        )
    a_up = check_nMAG(EndoCarrier(U), n)
    a_down = check_nMAG(E_down, n)
    # (b) the covering hom-isomorphism on the generating set
    hom_ok = True
    hom_table = []
    for i, A in enumerate(U):
        for j, B in enumerate(U):
            upsum, _ = hom_twist_sum(A, B)
            downdim = hom_dim(push_down(A), push_down(B))
            hom_table.append({"pair": [i, j], "upstairs_sum": upsum, "downstairs": downdim})
            if upsum != downdim:
                hom_ok = False
    # (c) the commuting square on the perpendicular pool, checked on its
    # centred orbit representatives (the square is twist-invariant)
    pool = list_indecomposables(carrier, dimcap=dimcap)
    Zpool, _ = compute_Z(U, pool, n)
    square_ok = True
    checked = 0
    for M in Zpool:
        T1 = _mod_pushdown_of_phi(E_down, V, M, U)
        T2 = phi_module(E_down, push_down(M))
        checked += 1
        if not is_isomorphic(T1, T2):
            square_ok = False
    outcome = bool(a_up.passed and a_down.passed and hom_ok and square_ok)
    return VerificationReport(
        outcome=outcome,
        witnesses=[
            {
                "upstairs_nMAG": a_up.to_json_dict(),
                "downstairs_nMAG": a_down.to_json_dict(),
                "hom_isomorphism_table": hom_table,
                "square_checked_on": checked,
                "square_commutes": square_ok,
            }
        ],
        caps={"dimcap": dimcap},
    )
