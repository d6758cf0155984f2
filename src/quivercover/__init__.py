"""quivercover: exact computation with Galois coverings of bound quiver
algebras, higher Auslander-Reiten translates, precluster tilting and support
tilting, with mechanical verification of the covering-transfer statements on
desk-scale algebras."""

from .errors import (
    AmbientNotClusterTilting,
    ApproximationNotSurjective,
    CapExceeded,
    DecompositionInconclusive,
    HypothesisUnverified,
    InhomogeneousRelation,
    IsoInconclusive,
    NotAdmissible,
    NotFreeAction,
    NotLocallyBounded,
    NotSquareFree,
    QuiverCoverError,
    RelationViolated,
    SchemaError,
    ShapeMismatch,
    WindowTooSmall,
)
from .field import Field, Mat, kernel_basis, rank, rref, solve_linear
from .groups import Group
from .presentation import (
    GradedQuiverPresentation,
    load_presentation,
    load_presentation_file,
    orbit_of_finite_action,
)
from .cover import CoverCarrier, smash_cover
from .modules import (
    FDModule,
    injective_envelope,
    ModMorphism,
    SubcategorySpec,
    decompose,
    direct_sum,
    dual_module,
    find_iso,
    hom_basis,
    hom_dim,
    injective_at,
    is_indecomposable,
    is_isomorphic,
    projective_at,
    projective_cover,
    radical_inclusion,
    simple_at,
    socle_inclusion,
    top_module,
    validate_module,
    zero_module,
)
from .homology import (
    DimBound,
    ExtSpace,
    Resolution,
    check_resolution,
    cosyzygy,
    dominant_dimension_upto,
    ext_dim,
    ext_space,
    inj_dim_upto,
    is_injective_module,
    is_projective_module,
    left_approximation,
    min_inj_coresolution,
    min_proj_resolution,
    proj_dim_upto,
    relative_ext,
    right_approximation,
    syzygy,
    tau,
    tau_minus,
    tau_n,
    tau_n_minus,
    transpose,
)
from .covering import (
    LiftingFamily,
    PullUp,
    canonical_orbit_rep,
    hom_twist_sum,
    ext_twist_sum,
    lift_morphism,
    pull_up,
    push_down,
    push_down_morphism,
    twist_module,
    twisted_iso,
    verify_ext_iso,
    verify_indecomposable_preservation,
    verify_orbit_bijection,
)
from .knitting import list_indecomposables
from .endo import EndoCarrier, endo_category, phi_module
from .precluster import (
    PreclusterVerdict,
    check_nMAG,
    compute_In,
    compute_Pn,
    compute_Z,
    is_generator_cogenerator,
    is_gorenstein_projective,
    is_n_precluster,
    verify_Pn_pushdown,
    verify_bongab,
    verify_equivalence_Z_Gp,
    verify_main1,
    verify_main2,
    verify_mod_pushdown,
    verify_selfinjectivity_criteria,
)
from .tautilt import (
    enumerate_support_tilting_pairs,
    is_G_tau_n_rigid,
    is_n_cluster_tilting,
    is_rigid_pair,
    is_support_tilting_pair,
    scan_tau_n_tilting_finite,
    verify_tilting_pushdown,
)
from .module_io import listing_to_json, module_from_json, module_to_json
from .report import VerificationReport, dumps_report, loads_report

__version__ = "0.1.0"
