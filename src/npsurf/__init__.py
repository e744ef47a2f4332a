"""Exact syzygy-level decisions for polarized rational surfaces and Fano
manifolds, over explicitly modeled intersection lattices.

Everything is integer arithmetic: surfaces are Picard lattices with a
distinguished canonical class, polarizations are lattice vectors, and every
verdict carries the hypotheses it consumed and a short justification tag.

``import npsurf`` loads no submodule: a public name or a submodule is
imported on first access.
"""

import sys

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {name: module for module, names in {
    "criteria": """AT_LEAST EXACT_MAX NOT_APPLICABLE NOT_N0 BoolVerdict
        CriteriaError EquivalenceReport MinNResult MinusKBoundReport NpVerdict
        TerminationThreshold VAVerdict adjoint_np_min_n adjoint_very_ample
        ampleness_termination bpf_check curve_np_reference
        green_lazarsfeld_failure lemma_125_bound min_kA_bound np_classify
        np_classify_degree reider_np thm_121_equivalence
        verify_inequality_chain""",
    "families": """AmpleCertificate CertificateRefused ExampleFamily
        FamilyError FAMILY_IDS OracleBoxError OracleNotApplicable OracleResult
        VerificationError VerifyReport ample_oracle build_example
        mutate_polarization nakai_certificate sweep_family verify_example""",
    "fano": """FanoError FanoInput FanoN0Decision index_nm3_n0 index_nm3_np
        multiples_np_fano multiples_np_surface primitive_np
        projective_space_twist_max_np surface_induction_base""",
    "lattice": """DivisorClass LatticeError PointConfig SurfaceModel blow_up
        canonical_class euler_characteristic hodge_index_bound intersect
        k_squared sectional_genus signature""",
}.items() for name in names.split()}
_SUBMODULES = frozenset({"api", "cli", "criteria", "families", "fano",
                         "lattice", "selftest"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    # not stored in this module's globals, so a later lookup sees any
    # rebinding of the name in its home module
    module = _HOME.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, takes the path that
    # ``python -X importtime`` reports on a line of its own
    __import__(f"{__name__}.{module}")
    home = sys.modules[f"{__name__}.{module}"]
    return home if name in _SUBMODULES else getattr(home, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys() | _SUBMODULES)
