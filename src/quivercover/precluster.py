"""Precluster-tilting checkers and the covering-transfer verifiers:
generator-cogenerator tests, the higher-translate closures, perpendicular
categories, Gorenstein projectivity over endomorphism categories,
n-minimal Auslander-Gorenstein detection, and the theorem verifiers."""

from __future__ import annotations

from dataclasses import dataclass

from .cover import CoverCarrier, smash_cover
from .endo import EndoCarrier, endo_category, phi_module
from .errors import HypothesisUnverified
from .field import invert
from .homology import (
    _evaluation_map,
    dominant_dimension_upto,
    ext_dim,
    hom_from_yoneda,
    inj_dim_upto,
    kernel_module,
    tau_n,
    tau_n_minus,
)
from .knitting import list_indecomposables
from .modules import (
    FDModule,
    ModMorphism,
    SubcategorySpec,
    cokernel_module,
    decompose,
    direct_sum,
    find_iso,
    hom_dim,
    injective_at,
    is_isomorphic,
    morphism_coords,
    projective_at,
    zero_module,
    zero_morphism,
)
from .covering import (
    add_class,
    ext_vanishes,
    hom_twist_sum,
    match_pushdowns,
    push_down,
    push_down_morphism,
)
from .report import INDETERMINATE, NOT_APPLICABLE, VerificationReport


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


def is_generator_cogenerator(U: SubcategorySpec) -> bool:
    carrier = U.carrier
    if carrier is None:
        return False
    for x in carrier.fundamental_domain():
        if not U.contains_iso(projective_at(carrier, x)):
            return False
        if not U.contains_iso(injective_at(carrier, x)):
            return False
    return True


def _translate_stable(U: SubcategorySpec, n: int, minus: bool) -> bool:
    for M in U.generators:
        T = tau_n_minus(M, n) if minus else tau_n(M, n)
        if T.is_zero():
            continue
        for piece, _ in decompose(T):
            if not U.contains_iso(piece):
                return False
    return True


def is_n_precluster(U: SubcategorySpec, n: int) -> PreclusterVerdict:
    return PreclusterVerdict(
        generator_cogenerator=is_generator_cogenerator(U),
        tau_stable=_translate_stable(U, n, minus=False),
        tau_minus_stable=_translate_stable(U, n, minus=True),
        ext_vanishing=all(
            ext_vanishes(M, N, n, U.twisted) for M in U.generators for N in U.generators
        ),
        finite_type=True,  # a finite generator list, closed under twist by construction
        n=n,
    )


# ---------------------------------------------------------------------------
# the canonical subcategories P_n and I_n


def _closure(carrier, seeds: list, steps, cap: int) -> tuple:
    """(classes, stabilized): close seed classes under the steps."""
    orbit = carrier.is_cover
    classes: list = []
    frontier = []
    for s in seeds:
        for piece, _ in decompose(s):
            if add_class(classes, piece, orbit):
                frontier.append(piece)
    iterations = 0
    while frontier and iterations < cap:
        iterations += 1
        new_frontier = []
        for M in frontier:
            for step in steps:
                T = step(M)
                if T.is_zero():
                    continue
                for piece, _ in decompose(T):
                    if add_class(classes, piece, orbit):
                        new_frontier.append(piece)
        frontier = new_frontier
    return classes, not frontier


def compute_Pn(carrier, n: int, cap: int = 32) -> tuple:
    """Closure of the projectives under the inverse higher translate.

    Returns (SubcategorySpec, stabilized)."""
    seeds = [projective_at(carrier, x) for x in carrier.fundamental_domain()]
    classes, stabilized = _closure(carrier, seeds, [lambda M: tau_n_minus(M, n)], cap)
    return SubcategorySpec(classes, twist_closed=carrier.is_cover, check=False), stabilized


def compute_In(carrier, n: int, cap: int = 32) -> tuple:
    seeds = [injective_at(carrier, x) for x in carrier.fundamental_domain()]
    classes, stabilized = _closure(carrier, seeds, [lambda M: tau_n(M, n)], cap)
    return SubcategorySpec(classes, twist_closed=carrier.is_cover, check=False), stabilized


def verify_Pn_pushdown(cover: CoverCarrier, n: int, cap: int = 32) -> VerificationReport:
    """Push-downs of the upstairs P_n classes biject with the downstairs ones."""
    up, up_stab = compute_Pn(cover, n, cap)
    down, down_stab = compute_Pn(cover.base_presentation, n, cap)
    caps = {
        "cap": cap,
        "upstairs_stabilized": up_stab,
        "downstairs_stabilized": down_stab,
    }
    if not (up_stab and down_stab):
        return VerificationReport(
            claim="PnPushdown",
            instance={"n": n, "carrier": cover.describe()},
            outcome=INDETERMINATE,
            caps=caps,
            notes=["closure did not stabilize within the cap"],
        )
    found = match_pushdowns(up.generators, down.generators, distinct=True)
    matching = ["decomposable-pushdown" if j == "decomposable" else j for j in found]
    matched = sum(isinstance(j, int) for j in found)
    ok = matched == len(up.generators) == len(down.generators)
    return VerificationReport(
        claim="PnPushdown",
        instance={"n": n, "carrier": cover.describe()},
        outcome=ok,
        witnesses=[
            {
                "upstairs_classes": len(up.generators),
                "downstairs_classes": len(down.generators),
                "matching": matching,
            }
        ],
        caps=caps,
        notes=[TRANSLATE_NOTE],
    )


# ---------------------------------------------------------------------------
# perpendicular categories


def perpendiculars(U: SubcategorySpec, pool: list, n: int) -> tuple:
    """(left, right): the pool members M with Ext^i(M, U) = 0, and those with
    Ext^i(U, M) = 0, for 0 < i < n (over every twist when U is twisted)."""
    left = [M for M in pool if all(ext_vanishes(M, G, n, U.twisted) for G in U.generators)]
    right = [M for M in pool if all(ext_vanishes(G, M, n, U.twisted) for G in U.generators)]
    return left, right


def compute_Z(U: SubcategorySpec, pool: list, n: int) -> tuple:
    """(Z(U) as a SubcategorySpec over the pool, symmetric: bool).

    Z = the common left/right (n-1)-perpendicular of U inside the pool; the
    left and right computations are performed independently and compared.
    Asymmetry refutes the precluster hypothesis and is reported by callers."""
    left, right = perpendiculars(U, pool, n)
    symmetric = [id(m) for m in left] == [id(m) for m in right]
    spec = SubcategorySpec(left, twist_closed=U.twist_closed, check=False)
    return spec, symmetric


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
    for j in E.objects:
        P = projective_at(E, j)
        for i in range(1, n + 2):
            if ext_dim(M, P, i):
                return False
    return True


# ---------------------------------------------------------------------------
# theorem verifiers


def _pushdown_spec(U: SubcategorySpec) -> SubcategorySpec:
    """Push down the generators, decompose, deduplicate."""
    classes: list = []
    for gen in U.generators:
        for piece, _ in decompose(push_down(gen)):
            add_class(classes, piece, twisted=False)
    return SubcategorySpec(classes, twist_closed=False, check=False)


def verify_main1(U: SubcategorySpec, n: int) -> VerificationReport:
    """Push-down of an n-precluster tilting subcategory stays one."""
    up = is_n_precluster(U, n)
    if not up.passes:
        return VerificationReport(
            claim="Main1",
            instance={"n": n, "generators": len(U.generators)},
            outcome=NOT_APPLICABLE,
            witnesses=[{"upstairs": up.to_json()}],
            notes=["the upstairs subcategory fails the n-precluster hypothesis"],
        )
    V = _pushdown_spec(U)
    down = is_n_precluster(V, n)
    return VerificationReport(
        claim="Main1",
        instance={"n": n, "generators": len(U.generators)},
        outcome=down.passes,
        witnesses=[{"upstairs": up.to_json(), "downstairs": down.to_json(),
                    "downstairs_classes": len(V.generators)}],
    )


def verify_main2(V: SubcategorySpec, cover: CoverCarrier, n: int, dimcap: int = 48) -> VerificationReport:
    """The preimage of a downstairs n-precluster tilting subcategory is one."""
    down = is_n_precluster(V, n)
    if not down.passes:
        return VerificationReport(
            claim="Main2",
            instance={"n": n, "generators": len(V.generators)},
            outcome=NOT_APPLICABLE,
            witnesses=[{"downstairs": down.to_json()}],
            notes=["the downstairs subcategory fails the n-precluster hypothesis"],
        )
    # the twists in one orbit push down to the same generator
    classes = list_indecomposables(cover, dimcap=dimcap)
    found = match_pushdowns(classes, V.generators, distinct=False)
    preimage = [X for X, j in zip(classes, found) if isinstance(j, int)]
    if len({j for j in found if isinstance(j, int)}) != len(V.generators):
        return VerificationReport(
            claim="Main2",
            instance={"n": n, "generators": len(V.generators)},
            outcome=NOT_APPLICABLE,
            notes=["V is not inside the push-down image of the orbit pool"],
        )
    Uspec = SubcategorySpec(preimage, twist_closed=True, check=False)
    up = is_n_precluster(Uspec, n)
    return VerificationReport(
        claim="Main2",
        instance={"n": n, "generators": len(V.generators)},
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
        return VerificationReport(
            claim="BonGab",
            instance={"n": n, "carrier": pres.describe()},
            outcome=NOT_APPLICABLE,
            notes=["NotSquareFree: the square-free hypothesis is not met"],
        )
    base = check_nMAG(pres, n)
    cover = check_nMAG(smash_cover(pres), n)
    return VerificationReport(
        claim="BonGab",
        instance={"n": n, "carrier": pres.describe()},
        outcome=(base.outcome == cover.outcome),
        witnesses=[{"base_nMAG": base.to_json_dict(), "cover_nMAG": cover.to_json_dict()}],
    )


def _tau_closure_candidate(carrier, n: int, cap: int) -> tuple:
    """Closure of projectives+injectives under both higher translates."""
    seeds = [projective_at(carrier, x) for x in carrier.fundamental_domain()]
    seeds += [injective_at(carrier, x) for x in carrier.fundamental_domain()]
    classes, stabilized = _closure(
        carrier,
        seeds,
        [lambda M: tau_n(M, n), lambda M: tau_n_minus(M, n)],
        cap,
    )
    return SubcategorySpec(classes, twist_closed=carrier.is_cover, check=False), stabilized


def verify_selfinjectivity_criteria(carrier, n: int, cap: int = 32) -> VerificationReport:
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
    cand, stab = _tau_closure_candidate(carrier, n, cap)
    if not stab:
        conds["i"] = INDETERMINATE
    else:
        conds["i"] = is_n_precluster(cand, n).passes

    In_spec, In_stab = compute_In(carrier, n, cap)
    Pn_spec, Pn_stab = compute_Pn(carrier, n, cap)
    projs = [projective_at(carrier, x) for x in carrier.fundamental_domain()]
    injs = [injective_at(carrier, x) for x in carrier.fundamental_domain()]

    def ext_free(members, targets) -> bool:
        return all(ext_vanishes(M, T, n, carrier.is_cover) for M in members for T in targets)

    if not In_stab:
        conds["ii"] = conds["iii"] = INDETERMINATE
    else:
        ext_ok = ext_free(In_spec.generators, In_spec.generators)
        conds["ii"] = ext_free(In_spec.generators, projs) and ext_ok
        conds["iii"] = all(In_spec.contains_iso(P) for P in projs) and ext_ok
    if not Pn_stab:
        conds["iv"] = conds["v"] = INDETERMINATE
    else:
        ext_ok = ext_free(Pn_spec.generators, Pn_spec.generators)
        conds["iv"] = ext_free(injs, Pn_spec.generators) and ext_ok
        conds["v"] = all(Pn_spec.contains_iso(I) for I in injs) and ext_ok
    determinate = [v for v in conds.values() if v is not INDETERMINATE]
    if not determinate:
        outcome = INDETERMINATE
    else:
        outcome = all(v == determinate[0] for v in determinate)
    witnesses = [{"conditions": {k: v for k, v in conds.items()}}]
    if carrier.is_cover and outcome is True:
        base_rep = verify_selfinjectivity_criteria(carrier.base_presentation, n, cap)
        agree = base_rep.witnesses[0]["conditions"].get("i")
        witnesses.append({"base_conditions": base_rep.witnesses[0]["conditions"]})
        if agree is not INDETERMINATE and conds["i"] is not INDETERMINATE:
            outcome = outcome and (agree == conds["i"])
    return VerificationReport(
        claim="SelfinjCriteria",
        instance={"n": n, "carrier": carrier.describe()},
        outcome=outcome,
        witnesses=witnesses,
        caps={"cap": cap},
        notes=notes,
    )


def verify_equivalence_Z_Gp(U: SubcategorySpec, n: int, dimcap: int = 48) -> VerificationReport:
    """The perpendicular category embeds as the Gorenstein projectives of mod-U.

    Checks, over the full indecomposable pool of a base carrier: every
    perpendicular member maps to a Gorenstein projective functor; the map is
    injective on isomorphism classes and preserves hom dimensions; and every
    Gorenstein projective over the endomorphism category is hit."""
    carrier = U.carrier
    if carrier is None or carrier.is_cover:
        return VerificationReport(
            claim="ZGpEquivalence",
            instance={"n": n},
            outcome=NOT_APPLICABLE,
            notes=[
                "checked on base carriers only; mod-U of a cover is not yet "
                "knitted one twist orbit at a time"
            ],
        )
    up = is_n_precluster(U, n)
    if not up.passes:
        return VerificationReport(
            claim="ZGpEquivalence",
            instance={"n": n, "generators": len(U.generators)},
            outcome=NOT_APPLICABLE,
            witnesses=[{"precluster": up.to_json()}],
            notes=["the subcategory fails the n-precluster hypothesis"],
        )
    pool = list_indecomposables(carrier, dimcap=dimcap)
    Z, symmetric = compute_Z(U, pool, n)
    notes = ["perpendicular degrees 0<i<n tested against the generator list"]
    if not symmetric:
        return VerificationReport(
            claim="ZGpEquivalence",
            instance={"n": n, "generators": len(U.generators)},
            outcome=False,
            witnesses=[{"left_right_perp_symmetric": False}],
            notes=notes + ["left and right perpendicular pools differ"],
        )
    E = endo_category(U)
    images = []
    ok = True
    for M in Z.generators:
        PhiM = phi_module(E, M)
        # Yoneda sanity: dim Phi(M)(U_i) = dim Hom(U_i, M) holds by construction
        if not is_gorenstein_projective(E, PhiM, n):
            ok = False
        images.append(PhiM)
    # injectivity on iso-classes and hom-dimension preservation
    table_ok = True
    for i, M in enumerate(Z.generators):
        for j, N in enumerate(Z.generators):
            if hom_dim(M, N) != hom_dim(images[i], images[j]):
                table_ok = False
            if i < j and is_isomorphic(images[i], images[j]):
                ok = False
    # surjectivity onto the Gorenstein projectives, up to the cap
    E_pool = list_indecomposables(E, dimcap=dimcap)
    gp = [X for X in E_pool if is_gorenstein_projective(E, X, n)]
    matched = 0
    for X in gp:
        if any(is_isomorphic(X, img) for img in images):
            matched += 1
    surjective = matched == len(gp) and len(gp) == len(images)
    return VerificationReport(
        claim="ZGpEquivalence",
        instance={"n": n, "generators": len(U.generators)},
        outcome=bool(ok and table_ok and surjective),
        witnesses=[
            {
                "Z_pool": len(Z.generators),
                "Gp_pool": len(gp),
                "hom_tables_equal": table_ok,
                "all_images_gorenstein_projective": ok,
                "surjective_up_to_cap": surjective,
            }
        ],
        caps={"dimcap": dimcap},
        notes=notes,
    )


def _match_down(V: SubcategorySpec, T: FDModule):
    """(j, iso P_*(T) -> V_j) for the downstairs generator V_j that T pushes
    down to, or None."""
    P = push_down(T)
    for j, gen in enumerate(V.generators):
        iso = find_iso(P, gen)
        if iso is not None:
            return j, iso
    return None


def _mod_pushdown_of_phi(E_down: EndoCarrier, V: SubcategorySpec, M: FDModule, U: SubcategorySpec):
    """mod-P_* applied to Phi(M): push a two-step U-presentation of M down.

    The presentation comes from right approximations by U (epi because U
    contains the projectives); each of its summands, a twist of a generator
    of U, is matched to the downstairs generator V_j it pushes down to, the
    object j of E_down."""
    f0, p0 = _evaluation_map(U, M)
    K, incl = kernel_module(f0)
    if K.is_zero():
        p1, comps01 = [], []
    else:
        f1, p1 = _evaluation_map(U, K)
        d = incl @ f1
        # components d_{kj}: piece1_j -> piece0_k
        _, _, prjs0 = direct_sum(p0)
        _, incs1, _ = direct_sum(p1)
        comps01 = [
            [(prjs0[k] @ d @ incs1[j]) for j in range(len(p1))] for k in range(len(p0))
        ]
    # a summand is a twist of a generator, which the caller matched downstairs
    down = {}
    for T in p0 + p1:
        down[id(T)] = down.get(id(T)) or _match_down(V, T)
    down0, down1 = [down[id(T)] for T in p0], [down[id(T)] for T in p1]

    # downstairs: cokernel of the pushed matrix between E_down projectives
    def down_proj_sum(down):
        if not down:
            return zero_module(E_down), [], []
        return direct_sum([projective_at(E_down, o) for o, _ in down])

    Q0, q0_inc, q0_prj = down_proj_sum(down0)
    Q1, q1_inc, q1_prj = down_proj_sum(down1)
    t = zero_morphism(Q1, Q0)
    for k, (o0, iso0) in enumerate(down0):
        for j, (o1, iso1) in enumerate(down1):
            # downstairs morphism between pushed generators
            down_mor = iso0 @ push_down_morphism(comps01[k][j]) @ _invert_iso(iso1)
            coords = morphism_coords(E_down.basis(o1, o0), down_mor)
            combo = {}
            for r in range(coords.rows):
                c = coords.a[r, 0]
                if c != 0:
                    combo[(o1, o0, r)] = c
            if combo:
                t = t + (q0_inc[k] @ hom_from_yoneda(E_down, o1, o0, combo) @ q1_prj[j])
    T, _ = cokernel_module(t)
    return T


def _invert_iso(phi):
    mats = {}
    for x in phi.src.support:
        inv = invert(phi.vertex(x))
        mats[x] = inv
    return ModMorphism(phi.tgt, phi.src, mats)


def verify_mod_pushdown(U: SubcategorySpec, n: int, dimcap: int = 48) -> VerificationReport:
    """The induced functor between the endomorphism categories: both sides are
    n-minimal Auslander-Gorenstein, the covering hom-isomorphism holds on the
    generating set, and the functor square with the perpendicular embedding
    commutes on the indecomposable pool."""
    carrier = U.carrier
    if carrier is None or not carrier.is_cover:
        return VerificationReport(
            claim="ModPushdown",
            instance={"n": n},
            outcome=NOT_APPLICABLE,
            notes=["needs a covering carrier with a twist-closed subcategory"],
        )
    up = is_n_precluster(U, n)
    if not up.passes:
        return VerificationReport(
            claim="ModPushdown",
            instance={"n": n, "generators": len(U.generators)},
            outcome=NOT_APPLICABLE,
            witnesses=[{"upstairs": up.to_json()}],
            notes=["the upstairs subcategory fails the n-precluster hypothesis"],
        )
    V = _pushdown_spec(U)
    E_down = endo_category(V)
    if any(_match_down(V, gen) is None for gen in U.generators):
        return VerificationReport(
            claim="ModPushdown",
            instance={"n": n},
            outcome=False,
            notes=["a pushed generator did not match the downstairs category"],
        )
    a_up = check_nMAG(endo_category(U), n)
    a_down = check_nMAG(E_down, n)
    # (b) the covering hom-isomorphism on the generating set
    hom_ok = True
    hom_table = []
    for i, A in enumerate(U.generators):
        for j, B in enumerate(U.generators):
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
    for M in Zpool.generators:
        T1 = _mod_pushdown_of_phi(E_down, V, M, U)
        T2 = phi_module(E_down, push_down(M))
        checked += 1
        if not is_isomorphic(T1, T2):
            square_ok = False
    outcome = bool(a_up.passed and a_down.passed and hom_ok and square_ok)
    return VerificationReport(
        claim="ModPushdown",
        instance={"n": n, "generators": len(U.generators)},
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
