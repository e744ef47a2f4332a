"""Exact syzygy-level decisions for polarized rational surfaces and Fano
manifolds, over explicitly modeled intersection lattices.

Everything is integer arithmetic: surfaces are Picard lattices with a
distinguished canonical class, polarizations are lattice vectors, and every
verdict carries the hypotheses it consumed and a short justification tag.
"""

from .criteria import (
    AT_LEAST,
    EXACT_MAX,
    NOT_APPLICABLE,
    NOT_N0,
    BoolVerdict,
    CriteriaError,
    EquivalenceReport,
    MinNResult,
    MinusKBoundReport,
    NpVerdict,
    TerminationThreshold,
    VAVerdict,
    adjoint_np_min_n,
    adjoint_very_ample,
    ampleness_termination,
    bpf_check,
    curve_np_reference,
    green_lazarsfeld_failure,
    lemma_125_bound,
    min_kA_bound,
    np_classify,
    np_classify_degree,
    reider_np,
    thm_121_equivalence,
    verify_inequality_chain,
)
from .families import (
    AmpleCertificate,
    CertificateRefused,
    ExampleFamily,
    FamilyError,
    FAMILY_IDS,
    OracleBoxError,
    OracleNotApplicable,
    OracleResult,
    VerificationError,
    VerifyReport,
    ample_oracle,
    build_example,
    mutate_polarization,
    nakai_certificate,
    sweep_family,
    verify_example,
)
from .fano import (
    FanoError,
    FanoInput,
    FanoN0Decision,
    index_nm3_n0,
    index_nm3_np,
    multiples_np_fano,
    multiples_np_surface,
    primitive_np,
    projective_space_twist_max_np,
    surface_induction_base,
)
from .lattice import (
    DivisorClass,
    LatticeError,
    PointConfig,
    SurfaceModel,
    blow_up,
    canonical_class,
    euler_characteristic,
    hodge_index_bound,
    intersect,
    k_squared,
    sectional_genus,
    signature,
)

__version__ = "0.1.0"

__all__ = [
    "AT_LEAST", "EXACT_MAX", "NOT_APPLICABLE", "NOT_N0",
    "AmpleCertificate", "BoolVerdict", "CertificateRefused", "CriteriaError",
    "DivisorClass", "EquivalenceReport", "ExampleFamily", "FAMILY_IDS",
    "FamilyError", "FanoError", "FanoInput", "FanoN0Decision", "LatticeError",
    "MinNResult", "MinusKBoundReport", "NpVerdict", "OracleBoxError",
    "OracleNotApplicable", "OracleResult", "PointConfig", "SurfaceModel",
    "TerminationThreshold", "VAVerdict", "VerificationError", "VerifyReport",
    "adjoint_np_min_n", "adjoint_very_ample", "ample_oracle",
    "ampleness_termination", "blow_up", "bpf_check", "build_example",
    "canonical_class",
    "curve_np_reference", "euler_characteristic", "green_lazarsfeld_failure",
    "hodge_index_bound", "index_nm3_n0", "index_nm3_np", "intersect",
    "k_squared", "lemma_125_bound", "min_kA_bound", "multiples_np_fano",
    "multiples_np_surface", "mutate_polarization", "nakai_certificate",
    "np_classify", "np_classify_degree", "primitive_np",
    "projective_space_twist_max_np", "reider_np", "sectional_genus",
    "signature", "surface_induction_base", "sweep_family",
    "thm_121_equivalence", "verify_example", "verify_inequality_chain",
]
