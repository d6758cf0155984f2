"""quivercover: exact computation with Galois coverings of bound quiver
algebras, higher Auslander-Reiten translates, precluster tilting and support
tilting, with mechanical verification of the covering-transfer statements on
desk-scale algebras.

The exports resolve on first use (PEP 562), so a process loads only the
layers it reaches: `quivercover validate` never imports `modules`.
"""

import importlib

# exported name -> the submodule that defines it.  Each submodule is exported
# under its own name too, so `from quivercover import *` binds it as it did
# when this file imported every layer.
_EXPORTS = {
    name: module
    for module, names in {
        "errors": (
            "AmbientNotClusterTilting", "CapExceeded", "DecompositionInconclusive",
            "HypothesisUnverified", "InhomogeneousRelation", "NotAdmissible", "NotFreeAction",
            "NotLocallyBounded", "QuiverCoverError", "RelationViolated", "SchemaError",
            "ShapeMismatch",
        ),
        "field": ("Field", "Mat", "kernel_basis", "rank", "rref", "solve_linear"),
        "groups": ("Group",),
        "carrier": (),
        "presentation": (
            "GradedQuiverPresentation", "load_presentation", "load_presentation_file",
            "orbit_of_finite_action",
        ),
        "cover": ("CoverCarrier", "smash_cover"),
        "modules": (
            "FDModule", "ModMorphism", "decompose", "direct_sum", "dual_module", "find_iso",
            "hom_basis", "hom_dim", "injective_at", "is_indecomposable", "is_isomorphic",
            "projective_at", "projective_cover", "radical_inclusion", "simple_at",
            "socle_inclusion", "validate_module", "zero_module",
        ),
        "homology": (
            "DimBound", "Resolution", "dominant_dimension_upto", "ext_dim", "inj_dim_upto",
            "is_projective_module", "min_proj_resolution", "proj_dim_upto", "syzygy", "tau",
            "tau_n", "tau_n_minus", "transpose",
        ),
        "covering": (
            "canonical_orbit_rep", "class_index", "ext_twist_sum", "ext_vanishes",
            "push_down", "push_down_morphism", "twist_module", "twisted_iso", "verify_ext_iso",
            "verify_indecomposable_preservation", "verify_orbit_bijection",
        ),
        "knitting": ("list_indecomposables",),
        "endo": ("EndoCarrier", "phi_module"),
        "precluster": (
            "PreclusterVerdict", "check_nMAG", "compute_In", "compute_Pn", "compute_Z",
            "is_generator_cogenerator", "is_gorenstein_projective", "is_n_precluster",
            "verify_Pn_pushdown", "verify_bongab", "verify_equivalence_Z_Gp", "verify_main1",
            "verify_main2", "verify_mod_pushdown", "verify_selfinjectivity_criteria",
        ),
        "tautilt": (
            "TiltingGraph", "enumerate_support_tilting_pairs", "is_G_tau_n_rigid",
            "is_n_cluster_tilting", "scan_tau_n_tilting_finite", "verify_tilting_pushdown",
        ),
        "module_io": ("listing_to_json", "module_from_json", "module_to_json"),
        "report": ("VerificationReport",),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    value = globals()[name] = module if _EXPORTS[name] == name else getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
