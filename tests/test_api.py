"""The public surface: a change that adds or removes API edits this list on purpose."""

import importlib
import pkgutil
import types

import pytest

import evoalg

PUBLIC = [
    "AlgebraElement",
    "BudgetError",
    "Cell",
    "CoefficientSequence",
    "CollapsedTable",
    "DescentChain",
    "DlrGap",
    "EvolutionAlgebra",
    "Graph",
    "Hamiltonian",
    "HeredityMatrix",
    "Hierarchy",
    "IsoReport",
    "LatticeBox",
    "Measure",
    "PairCell",
    "RowClassLayout",
    "StateSpace",
    "StructureCounts",
    "Subalgebra",
    "TailCell",
    "ValidationError",
    "VolumeScheme",
    "build_algebra",
    "build_hierarchy",
    "children_set",
    "coefficient_sequence",
    "collapse_by_symmetry",
    "components",
    "conditional_prob",
    "descent_chain",
    "dlr_check",
    "dlr_table",
    "export_matrix_csv",
    "export_matrix_json",
    "finite_volume_coeff",
    "from_weights",
    "generated_subalgebra",
    "gibbs_measure",
    "graph_from_json",
    "hamiltonian_energy",
    "iso_check",
    "load_matrix_csv",
    "load_matrix_json",
    "low_temp_limit_algebras",
    "matrix_entries",
    "measure_from_json",
    "nonzero_count",
    "potts_hamiltonian",
    "precedes",
    "state_space_from_json",
    "structure_counts",
]

MODULES = sorted(m.name for m in pkgutil.iter_modules(evoalg.__path__))


def test_public_names_of_the_package():
    # submodules become package attributes once anything imports them, so they are not API
    names = [
        name
        for name, value in vars(evoalg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == PUBLIC


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"evoalg.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
