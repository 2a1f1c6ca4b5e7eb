"""The public surface: a change that adds or removes API edits this list on purpose."""

import dataclasses
import importlib
import json
import pkgutil
import types

import numpy as np
import pytest

import evoalg
from evoalg import cli

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


# the public types that hold arrays or a measure, and the plain classes: each equals itself alone
IDENTITY = {"BoxMeasure", "BudgetError", "EvolutionAlgebra", "Hamiltonian", "HeredityMatrix", "Hierarchy", "Measure",
            "RowClassLayout", "Scenario", "ValidationError"}


def public_types() -> set:
    """Every class an ``evoalg`` module defines under a name without a leading underscore."""
    modules = [importlib.import_module(f"evoalg.{name}") for name in MODULES]
    return {value for module in modules for name, value in vars(module).items()
            if isinstance(value, type) and value.__module__ == module.__name__ and not name.startswith("_")}


def one_of_each(tmp_path) -> list:
    """An instance of every public type, made from the same inputs on every call."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "schema_version": 1, "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]}, "states": {"states": ["a", "A"]},
        "measure": {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 0.5}}}))
    graph, space = evoalg.Graph(2, frozenset({(0, 1)})), evoalg.StateSpace(2, ("a", "A"))
    h = evoalg.potts_hamiltonian(graph, 2, 1.0, 0.5)
    mu = evoalg.gibbs_measure(h)
    algebra = evoalg.build_algebra(graph, space, mu)
    scheme = evoalg.VolumeScheme(1, (0, 1), 2)
    tail, cell = evoalg.TailCell(1, ((0, 2),)), evoalg.Cell((0, 1), 2)
    return [
        graph, space, cell, evoalg.PairCell(cell, cell), evoalg.LatticeBox(2, 1), tail, scheme, scheme.measure(1),
        evoalg.coefficient_sequence(scheme, (tail, tail), (tail, tail)), h, mu, evoalg.dlr_check(h, {0: 1}),
        algebra, algebra.matrix, algebra.matrix.layout, algebra.generator(1), evoalg.build_hierarchy(algebra),
        evoalg.generated_subalgebra(algebra, [1]), evoalg.descent_chain(algebra, 1), evoalg.structure_counts(algebra),
        evoalg.iso_check(algebra, algebra), evoalg.collapse_by_symmetry(algebra, [[g] for g in range(16)]),
        cli.load_scenario(scenario), evoalg.ValidationError("x"), evoalg.BudgetError("x"),
    ]


def test_comparisons_never_raise_and_array_holders_equal_only_themselves(tmp_path):
    """``==`` and ``!=`` give opposite bools across every pair of public objects.  Twins made from the same inputs
    compare equal, save the identity types; every frozen dataclass hashes, save ``CollapsedTable``, whose rows are
    dicts, and equal ones hash alike."""
    first, second = one_of_each(tmp_path), one_of_each(tmp_path)
    assert {type(x) for x in first} == public_types()
    for a in first:
        for b in first + second:
            same, differ = a == b, a != b
            assert type(same) is bool and type(differ) is bool and same is not differ, (a, b)
    for a, b in zip(first, second):
        name = type(a).__name__
        assert a == a and (a != b if name in IDENTITY else a == b), name
        if not (dataclasses.is_dataclass(a) and a.__dataclass_params__.frozen):
            continue
        if name == "CollapsedTable":
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(a)
        else:
            assert hash(a) == hash(a) and (name in IDENTITY or hash(a) == hash(b)), name


def test_an_algebra_of_the_same_weights_is_another_algebra():
    """Measures and algebras compare by identity: the weights compare with ``np.array_equal``."""
    graph, space = evoalg.Graph(3, frozenset({(0, 1)})), evoalg.StateSpace(2)
    mu = evoalg.from_weights(np.arange(1.0, 9.0), 3, 2)
    nu = evoalg.from_weights(np.arange(1.0, 9.0), 3, 2)
    algebra = evoalg.build_algebra(graph, space, mu)
    sibling = algebra.with_measure(nu)
    assert mu != nu and np.array_equal(mu.weights, nu.weights)
    assert algebra != sibling and algebra.graph == sibling.graph and algebra.space == sibling.space
    assert len({algebra, sibling, algebra.with_measure(mu), mu, nu}) == 5
