"""The names ``sigmak`` exports, the ones it no longer has, and the ones the
benchmark in ``perfbench/`` reads (Tier-1 does not run ``perfbench/tests``)."""

import importlib
import re
from pathlib import Path

import pytest

import sigmak

EXPORTS = (
    "Certification",
    "ConeVerdict",
    "ConvergenceError",
    "Point",
    "ResidualReport",
    "SampleBox",
    "SolutionParams",
    "cancellation_coefficient",
    "derive_constants",
    "eigenvalues_symmetric",
    "elementary_symmetric",
    "eval_jet",
    "gamma_k",
    "h_formula",
    "residual_scan",
    "sl_phase",
    "verify_exact",
)

REMOVED = [
    ("sigmak.verify", "split_indicator"),
    ("sigmak.cone", "deformation_monotonicity_check"),
    ("sigmak.cone", "count_negative_eigenvalues"),
    ("sigmak.solution", "extend"),
    ("sigmak.symbolic", "sym_det"),
    ("sigmak.symbolic", "sym_format"),
    ("sigmak.symbolic", "sym_eval"),
    ("sigmak.symbolic", "sigma_k_partition"),
    ("sigmak.symbolic", "SigmaPartition"),
    ("sigmak.symbolic", "SIGMA_WORK_LIMIT"),
    ("sigmak.symfunc", "sigma_via_minors"),
    ("sigmak.symfunc", "sigma_all_via_charpoly"),
    ("sigmak.symfunc", "MINOR_DIM_LIMIT"),
    ("sigmak.verify", "fd_hessian"),
    ("sigmak.verify", "central_hessian"),
    ("sigmak.verify", "nonpoly_witness"),
    ("sigmak.verify", "iterated_forward_difference"),
    ("sigmak.verify", "WITNESS_MAX_DEGREE"),
    ("sigmak.doubledouble", "add_f"),
    ("sigmak.doubledouble", "mul_f"),
    ("sigmak.doubledouble", "from_product"),
    ("sigmak.doubledouble", "neg"),
    ("sigmak.symbolic", "SymMatrix"),
    ("sigmak.cone", "cone_verdicts"),
    ("sigmak.verify", "_point"),
    ("sigmak.symfunc", "SymmetricMatrix"),
    ("sigmak.symfunc", "eigenvalues_symmetric_dd"),
    ("sigmak.symfunc", "DD_JACOBI_REL_TOL"),
    ("sigmak.symfunc", "DD_TRACE_REL_TOL"),
    ("sigmak.symfunc", "FLOAT_RING"),
    ("sigmak.doubledouble", "rotate"),
    ("sigmak.doubledouble", "ring"),
    ("sigmak.solution", "hessian_dd"),
    ("sigmak.verify", "_exact_div"),
    ("sigmak.solution", "h_eval"),
    ("sigmak.solution", "solution_value"),
    ("sigmak.solution", "dd_terms"),
    ("sigmak.solution", "spectrum_sigmas_dd"),
    ("sigmak.solution", "arrow_sigmas"),
    ("sigmak.doubledouble", "add"),
    ("sigmak.doubledouble", "sum_squares"),
    ("sigmak.doubledouble", "mul_pow2"),
    ("sigmak.symfunc", "symmetrized"),
    ("sigmak.symfunc", "_mean"),
    ("sigmak.symfunc", "SYMMETRY_TOL"),
    ("sigmak.solution", "eigenvalues_dd"),
    ("sigmak.doubledouble", "div"),
    ("sigmak.doubledouble", "sqrt"),
    ("sigmak.doubledouble", "ZERO"),
    ("sigmak.doubledouble", "to_float"),
    ("sigmak.verify", "SPECTRUM_AUDIT_REL_TOL"),
    ("sigmak.verify", "_check_spectrum"),
    ("sigmak.solution", "_check_exponent"),
    ("sigmak.solution", "_check_radius"),
    ("sigmak.verify", "_check_box"),
    ("sigmak.symbolic", "sym_zero"),
    ("sigmak.cone", "sigmas_positive"),
    ("sigmak.doubledouble", "sub"),
    ("sigmak.doubledouble", "ONE"),
    ("sigmak.doubledouble", "mul"),
    ("sigmak.doubledouble", "from_float"),
]

BENCHMARK_NAMES = [
    ("sigmak", "derive_constants"),
    ("sigmak", "cli"),
    ("sigmak", "cone"),
    ("sigmak", "doubledouble"),
    ("sigmak", "symbolic"),
    ("sigmak", "verify"),
    ("sigmak.cli", "run"),
    ("sigmak.symbolic", "verify_exact"),
    ("sigmak.symbolic", "sym_sigma_k"),
    ("sigmak.symbolic", "build_rotated_hessian"),
    ("sigmak.symbolic", "rotated_hessian_from_constants"),
    ("sigmak.symbolic", "sym_sub"),
    ("sigmak.symbolic", "sym_const"),
    ("sigmak.errors", "CapabilityError"),
]


def test_all_is_the_chosen_surface():
    assert tuple(sigmak.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(sigmak, name) is not None, name


@pytest.mark.parametrize("module, name", REMOVED, ids=[n for _, n in REMOVED])
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert not hasattr(sigmak, name)


@pytest.mark.parametrize(
    "module, name", BENCHMARK_NAMES, ids=[f"{m}.{n}" for m, n in BENCHMARK_NAMES]
)
def test_benchmark_names_exist(module, name):
    # as ``from module import name``, which also imports a submodule
    assert hasattr(__import__(module, fromlist=[name]), name)


def test_readme_quick_start_imports_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    imported = [
        name.strip()
        for names in re.findall(r"^from sigmak import (.+)$", block, flags=re.MULTILINE)
        for name in names.split(",")
    ]
    assert imported and set(imported) <= set(EXPORTS)
