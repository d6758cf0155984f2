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


class CapExceeded(QuiverCoverError):
    """An enumeration or closure did not stabilize within its cap."""


class HypothesisUnverified(QuiverCoverError):
    """A claim's standing hypothesis failed; the result would be meaningless.

    The message is the claim's note, and the witnesses show what failed."""

    def __init__(self, message, *witnesses):
        self.witnesses = list(witnesses)
        super().__init__(message)


class AmbientNotClusterTilting(QuiverCoverError):
    """The ambient subcategory handed to a tilting check is not n-cluster tilting."""
