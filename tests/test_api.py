"""The names ``import speccomp`` exports: changing them is a deliberate act."""

import speccomp

EXPORTS = [
    "ClusteringError",
    "ComponentSet",
    "ConditioningError",
    "ConvergenceError",
    "DEFAULT_TOLERANCES",
    "InputFormatError",
    "JordanSpec",
    "PreconditionError",
    "ScalarFunctionJet",
    "SingularMatrixError",
    "SpectralError",
    "Spectrum",
    "ToleranceConfig",
    "__version__",
    "all_components",
    "analyze",
    "as_matrix",
    "build_case",
    "case_document",
    "cesaro_limit",
    "cesaro_residuals",
    "component",
    "components_by_nullspace",
    "drazin_inverse",
    "drazin_residuals",
    "eigenprojection_residuals",
    "eigenprojection_zero",
    "frob",
    "lagrange_projector",
    "matrix_function",
    "spectrum_from_data",
]

# every ``sc.<name>`` the benchmark driver bench/run.py calls, except the
# submodules ``cli`` and ``documents``
BENCHMARK_NAMES = [
    "ConditioningError",
    "DEFAULT_TOLERANCES",
    "InputFormatError",
    "PreconditionError",
    "all_components",
    "analyze",
    "as_matrix",
    "cesaro_limit",
    "cesaro_residuals",
    "drazin_inverse",
    "drazin_residuals",
    "eigenprojection_residuals",
    "eigenprojection_zero",
    "spectrum_from_data",
]

# helpers that left the top level and stay importable from their modules
MODULE_ONLY = {
    "linalg": ["identity", "rank_numeric", "solve"],
    "spectrum": [
        "cluster_spectrum",
        "effective_cluster_radius",
        "eigen_index",
        "eigenvalues_raw",
        "replace_eigenvalue",
    ],
    "oracle": ["integer_similarity"],
}


def test_exports_are_the_agreed_list():
    assert sorted(speccomp.__all__) == EXPORTS


def test_benchmark_names_are_exported():
    assert set(BENCHMARK_NAMES) <= set(speccomp.__all__)


def test_helpers_live_in_their_modules_only():
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert callable(getattr(getattr(speccomp, module), name)), (module, name)
            assert not hasattr(speccomp, name), name
