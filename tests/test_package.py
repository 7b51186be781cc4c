import pytest

import dimfactor
from dimfactor import arith, bounds, detectors, dimensions, errors, multfuncs, reductions, sweeps

# the public names the package exports, by the submodule that defines them
PUBLIC = {
    arith: "Factorization factor_trial is_probable_prime kronecker_m3 kronecker_m4",
    bounds: "INTERVAL NO_LARGE_SQUARE_DIVISOR BoundsReport compute_T cubic_positive curly_L "
            "square_divisor_bounds",
    detectors: "Verdict primality_test squarefree_test",
    dimensions: "DefaultOracle OracleSample StaticOracle dim_A dim_B dim_G dim_H dim_delta "
                "level_one_newform_dim",
    errors: "DimfactorError DomainError FactoringFailureError InconsistentInputsError "
            "InternalInconsistencyError InvalidWeightError",
    multfuncs: "nu2_star nu3_star nu_inf_star s0_star",
    reductions: "SquarefullSplit factor_given_phi_multiple factor_squarefull_from_invariants "
                "factor_squarefull_two_values full_factor_three_values recover_nu23_star",
    sweeps: "SweepReport primality_sweep trichotomy_sweep",
}
NAMES = {name for names in PUBLIC.values() for name in names.split()}


def test_public_names_are_the_submodules_objects():
    assert len(NAMES) == 43
    assert sorted(dimfactor.__all__) == sorted(NAMES)
    for module, names in PUBLIC.items():
        for name in names.split():
            assert getattr(dimfactor, name) is getattr(module, name), name
    assert NAMES <= set(dir(dimfactor))


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from dimfactor import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    assert namespace["dim_A"] is dimensions.dim_A


def test_unknown_attributes_raise_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        dimfactor.no_such_name  # noqa: B018

