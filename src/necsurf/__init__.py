"""Combinatorial realization of cyclic orientation-reversing surface
actions on real surfaces, with machine-checkable certificates.

The package builds NEC signatures and presentations, derives index-2
kernels by Reidemeister-Schreier rewriting, transports surface-kernel
epimorphisms, extends them to dihedral quotients, and verifies every
step with exact arithmetic.
"""

from .abelian import Abelianization
from .cosets import NotInKernelError, SchreierSubgroup, reidemeister_schreier
from .groups import CyclicGroup, DihedralGroup
from .kernels import KernelSignatureReport
from .pipeline import (
    ActionDatum,
    ActionValidationError,
    DerivedKernel,
    DihedralExtension,
    EnumerationResult,
    EtaResult,
    LemmaReport,
    PipelineAssertionError,
    RealizationCertificate,
    ShapeCertificate,
    admissible_shapes,
    build_theta,
    construct_eta,
    derive_delta_hat,
    enumerate_smooth_epimorphisms,
    extend_to_dihedral,
    first_smooth_epimorphism,
    lemma1_check,
    realize,
    shape_certificate,
    validate_action,
)
from .presentations import (
    Presentation,
    UnsupportedSignatureError,
    canonical_presentation,
    check_homomorphism,
    verify_derived_relators,
)
from .signatures import (
    CONNECTOR,
    GLIDE,
    REFLECTION,
    GeneratorKind,
    NECSignature,
    elliptic,
    quotient_disc_signature,
    reduced_area,
)
from .words import Word

__version__ = "0.1.0"
