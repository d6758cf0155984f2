"""Typed errors shared across the toolkit.

Every error carries a short machine-readable name (its class name) plus a
human message; the CLI surfaces them verbatim.
"""


class QuiverCoverError(Exception):
    """Base class for all domain errors."""


class SchemaError(QuiverCoverError):
    """Input document does not conform to the JSON schema."""


class InhomogeneousRelation(QuiverCoverError):
    """A relation mixes paths with different endpoints or weights."""


class NotAdmissible(QuiverCoverError):
    """Relations leave the square of the arrow ideal, or mix path lengths."""


class NotLocallyBounded(QuiverCoverError):
    """Some path space stays nonzero beyond the declared nilpotency bound."""


class NotFreeAction(QuiverCoverError):
    """A non-identity group element fixes a vertex."""


class WindowTooSmall(QuiverCoverError):
    """A pull-up truncated to a window of shifts is not a module."""


class RelationViolated(QuiverCoverError):
    """A module does not annihilate a relation."""

    def __init__(self, relation_index, vertex, message=""):
        self.relation_index = relation_index
        self.vertex = vertex
        super().__init__(
            message or f"relation {relation_index} does not vanish (source vertex {vertex})"
        )


class ShapeMismatch(QuiverCoverError):
    """Matrix dimensions are inconsistent."""


class DecompositionInconclusive(QuiverCoverError):
    """Could not split the module nor certify indecomposability."""


class IsoInconclusive(QuiverCoverError):
    """Isomorphism search exhausted its trial cap without a certificate."""


class CapExceeded(QuiverCoverError):
    """An enumeration or closure did not stabilize within its cap."""


class ApproximationNotSurjective(QuiverCoverError):
    """Cannot build a relative projective resolution: the subcategory does not generate."""


class HypothesisUnverified(QuiverCoverError):
    """A checker's standing hypothesis failed; the result would be meaningless."""


class NotSquareFree(QuiverCoverError):
    """The square-free hypothesis of the transfer result is not met."""


class AmbientNotClusterTilting(QuiverCoverError):
    """The ambient subcategory handed to a tilting check is not n-cluster tilting."""
