"""Seeded inputs and the fixed operation list of each benchmark workload.

A seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``);
``reference/`` holds the expected outputs of every variant.  All variants
of a workload do the same amount of work: a seed changes weights,
couplings, temperatures, chosen generators and coefficients, never graph
sizes, radii, generator levels or operation counts.  The run-to-run spread
the benchmark reports is then timing noise, not a change of input size.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from evoalg import algebra, cli, structure
from evoalg.algebra import AlgebraElement
from evoalg.cells import StateSpace
from evoalg.graphs import Graph
from evoalg.measures import from_weights

import digest

VARIANTS = 16
DLR_CHAINS = 5


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``call(out_dir)`` runs it and returns a CLI exit code or a value;
    ``outputs(result, out_dir)`` digests what it produced.
    """

    name: str
    call: Callable
    outputs: Callable


def prepare(workload: str, seed: int, inputs: Path):
    """Write the inputs of ``workload`` for ``seed``; return ``(variant, ops)``."""
    variant = seed % VARIANTS
    rng = random.Random(f"{workload}/{variant}")
    inputs.mkdir(parents=True, exist_ok=True)
    return variant, WORKLOADS[workload](rng, inputs)


# --- heredity: generated scenarios through cli.main ------------------------


def _path_edges(names):
    return [[a, b] for a, b in zip(names, names[1:])]


def _scenario(vertices, edges, states, measure) -> dict:
    return {
        "schema_version": 1,
        "graph": {"vertices": vertices, "edges": edges},
        "states": {"states": states},
        "measure": measure,
    }


def _weights(rng, n: int, states) -> dict:
    return {
        "weights": {
            "(" + ",".join(cell) + ")": rng.uniform(0.5, 2.0)
            for cell in itertools.product(states, repeat=n)
        }
    }


def _potts(rng, betas=(0.5, 1.0)) -> dict:
    return {
        "hamiltonian": {
            "model": "potts",
            "J": rng.uniform(0.8, 1.2),
            "beta": rng.uniform(*betas),
        }
    }


def _write(inputs: Path, name: str, payload: dict) -> str:
    path = inputs / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_cli(argv, out: Path) -> int:
    return cli.main([*argv, "--out", str(out)])


def _cli_op(name: str, argv) -> Op:
    return Op(name, functools.partial(_run_cli, argv), digest.cli_outputs)


def heredity(rng, inputs: Path) -> list:
    """Bulk construction, hierarchy, iso-check and export through ``cli.main``.

    Six-vertex graphs with two states give 4096 generators, so a pass
    takes about a second and a run holds tens of passes.  The 8-vertex
    scenarios at the 65,536-generator budget took seconds per operation,
    and a run of two passes was too few for a steady median.
    """
    v6 = [f"v{i}" for i in range(6)]
    path6 = _path_edges(v6)
    two_paths = _path_edges(v6[:3]) + _path_edges(v6[3:])
    edge_vertex = [["v0", "v1"]]
    ab, xyz = ["a", "A"], ["x", "y", "z"]
    path6_weights = _write(
        inputs, "path6_weights.json", _scenario(v6, path6, ab, _weights(rng, 6, ab))
    )
    path6_potts = _write(inputs, "path6_potts.json", _scenario(v6, path6, ab, _potts(rng)))
    path6_cold = _write(
        inputs, "path6_potts_cold.json", _scenario(v6, path6, ab, _potts(rng, (1.5, 2.5)))
    )
    two_paths_potts = _write(
        inputs, "two_paths_potts.json", _scenario(v6, two_paths, ab, _potts(rng))
    )
    edge_vertex_weights = _write(
        inputs,
        "edge_vertex_weights.json",
        _scenario(v6[:3], edge_vertex, xyz, _weights(rng, 3, xyz)),
    )
    return [
        _cli_op("build path6", ["build", "--scenario", path6_weights]),
        _cli_op("hierarchy two_paths", ["hierarchy", "--scenario", two_paths_potts]),
        _cli_op(
            "isocheck path6",
            ["isocheck", "--scenario", path6_weights, "--scenario-b", path6_potts],
        ),
        _cli_op(
            "isocheck path6 cold",
            ["isocheck", "--scenario", path6_potts, "--scenario-b", path6_cold],
        ),
        _cli_op("build edge_vertex", ["build", "--scenario", edge_vertex_weights]),
        _cli_op("hierarchy edge_vertex", ["hierarchy", "--scenario", edge_vertex_weights]),
    ]


# --- gibbs: volume trends and consistency gaps through cli.main -------------


def _limits_pair(rng, q: int, origin) -> dict:
    """A pair of tail cells differing at the origin, and a pair of its children.

    Every lattice box is connected, so the children set of ``phi`` is the
    set of its cells and the coefficient is nonzero at every radius.
    """
    tail, other = rng.randint(1, q), rng.randint(1, q)
    mark = rng.choice([s for s in range(1, q + 1) if s != other])
    phi = [{"tail": tail}, {"tail": other, "pattern": [[origin, mark]]}]
    return {"phi": phi, "psi": [rng.choice(phi), rng.choice(phi)]}


def gibbs(rng, inputs: Path) -> list:
    """Dense Gibbs enumeration over 2^15 cells, and the DLR check.

    Each DLR check on a 10-vertex chain costs about twice the 1-D limits.
    With five of them the median latency falls well inside one operation
    kind, not at the edge of a group.
    """
    line = {
        "schema_version": 1,
        "limits": {
            "dimension": 1,
            "states": 2,
            "radii": list(range(8)),
            "J": rng.uniform(0.8, 1.2),
            "beta": rng.uniform(1.5, 2.5),
            "pairs": [_limits_pair(rng, 2, 0), _limits_pair(rng, 2, 0)],
            "low_temp": {
                "betas": [rng.uniform(0.3, 0.7), rng.uniform(1.5, 2.5), rng.uniform(4.0, 6.0)]
            },
        },
    }
    square = {
        "schema_version": 1,
        "limits": {
            "dimension": 2,
            "states": 3,
            "radii": [0, 1],
            "J": rng.uniform(0.8, 1.2),
            "beta": rng.uniform(1.0, 2.0),
            "pairs": [_limits_pair(rng, 3, [0, 0])],
        },
    }
    v10 = [f"v{i}" for i in range(10)]
    ops = [
        _cli_op("limits 1d", ["limits", "--scenario", _write(inputs, "limits_1d.json", line)]),
        _cli_op("limits 2d", ["limits", "--scenario", _write(inputs, "limits_2d.json", square)]),
    ]
    for i in range(DLR_CHAINS):
        chain = _scenario(v10, _path_edges(v10), ["a", "A"], _potts(rng))
        left = rng.randint(1, 7)
        scenario = _write(inputs, f"path10_potts_{i}.json", chain)
        ops.append(
            _cli_op(
                f"dlr path10 {i}",
                ["dlr", "--scenario", scenario, "--domain", f"v{left},v{left + 1}"],
            )
        )
    return ops


# --- queries: element arithmetic and structure reads on built algebras ------


@dataclass(frozen=True)
class _Shape:
    """A built algebra with the component blocks its generators are drawn over."""

    algebra: object
    blocks: tuple


def _build(rng, n: int, edges, blocks) -> _Shape:
    k = 2
    measure = from_weights(np.array([rng.uniform(0.5, 2.0) for _ in range(k**n)]), n, k)
    built = algebra.build_algebra(Graph(n, frozenset(edges)), StateSpace(k), measure)
    return _Shape(built, blocks)


def _generator(rng, shape: _Shape, level: int) -> int:
    """A random generator whose cells differ on exactly ``level`` blocks.

    The level fixes the children-set size ``2**level`` and so the work of
    every operation on the generator.
    """
    n = shape.algebra.graph.vertex_count
    first = [rng.randint(0, 1) for _ in range(n)]
    second = list(first)
    for block in rng.sample(shape.blocks, level):
        while all(second[v] == first[v] for v in block):
            for v in block:
                second[v] = rng.randint(0, 1)
    return _cell_index(first) * shape.algebra.kn + _cell_index(second)


def _cell_index(digits) -> int:
    """Canonical index of a two-state cell: vertex 0 is the least significant bit."""
    return sum(d << v for v, d in enumerate(digits))


def _generators(rng, shape: _Shape, per_level, exclude=frozenset()) -> list:
    chosen = []
    for level, count in enumerate(per_level):
        picked = set()
        while len(picked) < count:
            g = _generator(rng, shape, level)
            if g not in exclude:
                picked.add(g)
        chosen.extend(sorted(picked))
    return chosen


def _element(rng, gens) -> AlgebraElement:
    return AlgebraElement({g: rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for g in gens})


def _square(shape, x, out):
    return shape.algebra.square(x)


def _multiply(shape, x, y, out):
    return shape.algebra.multiply(x, y)


def _generated(shape, g, out):
    return structure.generated_subalgebra(shape.algebra, [g])


def _descent(shape, g, out):
    return structure.descent_chain(shape.algebra, g)


def _arithmetic_ops(rng, shape, label, squares, products, per_level, shared_per_level):
    ops = []
    for i in range(squares):
        x = _element(rng, _generators(rng, shape, per_level))
        square = functools.partial(_square, shape, x)
        ops.append(Op(f"square {label} {i}", square, digest.element_outputs))
    for i in range(products):
        x_gens = _generators(rng, shape, per_level)
        shared, offset = [], 0
        for level, count in enumerate(per_level):
            shared.extend(x_gens[offset : offset + shared_per_level[level]])
            offset += count
        rest = [c - s for c, s in zip(per_level, shared_per_level)]
        y_gens = shared + _generators(rng, shape, rest, exclude=frozenset(x_gens))
        x, y = _element(rng, x_gens), _element(rng, y_gens)
        product = functools.partial(_multiply, shape, x, y)
        ops.append(Op(f"multiply {label} {i}", product, digest.element_outputs))
    return ops


def _structure_ops(rng, shape, label, count, subalgebra_level, descent_level):
    ops = []
    for i in range(count):
        g = _generator(rng, shape, subalgebra_level)
        generated = functools.partial(_generated, shape, g)
        ops.append(Op(f"subalgebra {label} {i}", generated, digest.basis_outputs))
    for i in range(count):
        g = _generator(rng, shape, descent_level)
        descent = functools.partial(_descent, shape, g)
        ops.append(Op(f"descent {label} {i}", descent, digest.chain_outputs))
    return ops


def queries(rng, inputs: Path) -> list:
    """Row-by-row reads of two algebras built once, during set-up.

    The edgeless 6-vertex algebra has rows of up to 4096 entries; the
    two-path algebra has 65,536 generators with rows of at most 16.
    Elements hold 200 generators with a fixed count per level; products
    share half of them.  Sixteen faster and sixteen slower operations sit
    on either side of the eight two-path squares, so the median latency
    falls in the middle of that group; p99 falls inside the edgeless
    squares.
    """
    edgeless = _build(rng, 6, [], tuple((v,) for v in range(6)))
    two_paths = _build(
        rng,
        8,
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)],
        ((0, 1, 2, 3), (4, 5, 6, 7)),
    )
    return [
        *_arithmetic_ops(
            rng, edgeless, "edgeless", 4, 4, (3, 19, 47, 62, 47, 19, 3), (1, 10, 23, 31, 24, 9, 2)
        ),
        *_structure_ops(rng, edgeless, "edgeless", 4, subalgebra_level=5, descent_level=6),
        *_arithmetic_ops(rng, two_paths, "two_paths", 8, 8, (50, 100, 50), (25, 50, 25)),
        *_structure_ops(rng, two_paths, "two_paths", 4, subalgebra_level=2, descent_level=2),
    ]


WORKLOADS = {"heredity": heredity, "queries": queries, "gibbs": gibbs}
