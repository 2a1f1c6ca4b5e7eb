"""The signature kernel against the pair-loop and search oracles.

Rows, entries, hierarchies, the nonzero count, the exported bytes and the
subalgebra queries must equal what the code replaced by the kernel
produced, exactly; element arithmetic must agree with a dict accumulation
over the pair-loop rows to rounding, and with a sort-merge accumulation
of the row classes exactly.
"""

import builtins
import contextlib
import copy
import csv
import dataclasses
import filecmp
import io
import itertools
import json
import random
import tempfile
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

import evoalg as ev
from evoalg import algebra as algebra_module, cli, structure

import pytest

from conftest import (
    block_of,
    hierarchy_flows,
    oracle_combine,
    oracle_counts,
    oracle_descent,
    oracle_entries,
    oracle_flows,
    oracle_hierarchy,
    oracle_iso,
    oracle_levels,
    oracle_sorted_combine,
    oracle_subalgebra,
    oracle_supports,
)

LABEL_POOL = ("a", "A", 'q"', "é", "\\", "ü,", "∑", "x y", "\t")


@st.composite
def algebras(draw, max_n=4, labels=False, max_dimension=None):
    """Graphs on up to ``max_n`` vertices with random edges, k in {2, 3}, random weights; k=3 only where
    ``3**(2n)`` generators stay within ``max_dimension``."""
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from([2, 3] if max_dimension is None or 3 ** (2 * n) <= max_dimension else [2]))
    pairs = list(itertools.combinations(range(n), 2))
    edges = frozenset(p for p in pairs if draw(st.booleans()))
    names = tuple(draw(st.permutations(LABEL_POOL))[:k]) if labels else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    measure = ev.from_weights(rng.uniform(0.1, 1.0, size=k**n), n, k)
    return ev.build_algebra(ev.Graph(n, edges), ev.StateSpace(k, names), measure)


def labelled(n, edges, names):
    """The algebra of ``n`` vertices, ``edges`` and the states ``names``, with random weights seeded by ``n``."""
    k = len(names)
    measure = ev.from_weights(np.random.default_rng(n).uniform(0.1, 1.0, size=k**n), n, k)
    return ev.build_algebra(ev.Graph(n, frozenset(edges)), ev.StateSpace(k, names), measure)


def edgeless_six():
    rng = np.random.default_rng(6)
    measure = ev.from_weights(rng.uniform(0.1, 1.0, size=64), 6, 2)
    return ev.build_algebra(ev.Graph(6), ev.StateSpace(2), measure)


def check_entries(algebra, chunk):
    """The entries of the default walk, and of one in chunks of about ``chunk`` entries, against the pair loop."""
    expected = oracle_entries(algebra)
    assert list(ev.matrix_entries(algebra)) == expected
    with mock.patch.object(algebra_module, "_CHUNK_ENTRIES", chunk):
        chunked = [
            entry
            for rows, cols, vals in algebra.matrix.entry_chunks()
            for entry in zip(rows.tolist(), cols.tolist(), vals.tolist())
        ]
    assert chunked == expected
    assert ev.nonzero_count(algebra.graph, algebra.space.k) == len(expected)


def check_queries(algebra, seed):
    """Subalgebras from every generator alone and with two random others,
    every descent chain, ``precedes`` at a random pair, and the counts."""
    supports, children = oracle_supports(algebra)
    kn, dim = algebra.kn, algebra.dimension
    rng = random.Random(seed)
    memo = {}
    for g in range(dim):
        for seed_gens in ([g], [g, rng.randrange(dim), rng.randrange(dim)]):
            got = ev.generated_subalgebra(algebra, seed_gens).basis
            assert got == oracle_subalgebra(supports, seed_gens, memo)
        chain = ev.descent_chain(algebra, g).elements
        assert tuple(p.index for p in chain) == oracle_descent(children, kn, g)
        tau = rng.randrange(dim)
        assert ev.precedes(algebra, tau, g) == (tau in supports[g])
    if len(ev.components(algebra.graph)) == 1:
        assert ev.structure_counts(algebra) == oracle_counts(supports, kn)
    else:
        with pytest.raises(ev.ValidationError, match="connected"):
            ev.structure_counts(algebra)


def check_arithmetic(algebra, seed):
    """``square`` and ``multiply`` on random signed elements against a dict accumulation."""
    rng = random.Random(seed)
    dim = algebra.dimension
    gens = rng.sample(range(dim), min(dim, rng.randint(1, 40)))
    x = ev.AlgebraElement({g: rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for g in gens})
    shared = rng.sample(gens, rng.randint(0, len(gens)))
    others = rng.sample(range(dim), min(dim, rng.randint(0, 40)))
    y = ev.AlgebraElement({g: rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for g in shared + others})
    cases = [
        (algebra.square(x), [(g, v * v) for g, v in x.coeffs.items()]),
        (algebra.multiply(x, y), [(g, v * y.coeffs[g]) for g, v in x.coeffs.items() if g in y.coeffs]),
    ]
    for got, scaled in cases:
        sums, magnitudes = oracle_combine(algebra, scaled)
        assert set(got.coeffs) <= set(sums)
        for j, want in sums.items():
            assert abs(got.coeffs.get(j, 0.0) - want) <= 1e-12 * magnitudes[j]
    assert algebra.multiply(x, y).coeffs == algebra.multiply(y, x).coeffs
    assert algebra.multiply(x, ev.AlgebraElement()).is_zero()
    # an element holding every generator expands to at least `dimension` entries,
    # which combine sums over all columns; generator 1 = (cell 0, cell 1) has level 1
    # and expands to 4 entries, which it sorts unless the algebra is tiny
    full = ev.AlgebraElement({g: rng.choice((-1, 1)) * rng.uniform(0.1, 1.0) for g in range(dim)})
    single = ev.AlgebraElement({1: rng.uniform(0.1, 1.0)})
    faint = ev.AlgebraElement({g: 4e-8 * v for g, v in full.coeffs.items()})  # squares straddle COEFF_DROP
    for a in (full, faint, single, x):
        gens = sorted(a.coeffs)
        check_exact(algebra, algebra.square(a), gens, [a.coeffs[i] * a.coeffs[i] for i in gens])
        check_square_is_product(algebra, a)
        for b in (full, single, x, y):
            gens = sorted(a.coeffs.keys() & b.coeffs.keys())
            check_exact(algebra, algebra.multiply(a, b), gens, [a.coeffs[i] * b.coeffs[i] for i in gens])


def check_square_is_product(algebra, x):
    """``square(x)`` and ``multiply(x, x)`` have the same keys in the same order and the same bits."""
    square, product = algebra.square(x).coeffs, algebra.multiply(x, x).coeffs
    assert list(square) == list(product)
    assert [v.hex() for v in square.values()] == [v.hex() for v in product.values()]


def check_exact(algebra, got, gens, scales):
    """``got`` equals the sort-merge oracle over ``scales * row(gens)``: keys, order and bits."""
    want = oracle_sorted_combine(algebra.matrix, gens, scales)
    assert list(got.coeffs) == list(want)
    assert [v.hex() for v in got.coeffs.values()] == [v.hex() for v in want.values()]
    assert all(abs(v) >= algebra_module.COEFF_DROP for v in got.coeffs.values())


def check_hierarchy(algebra):
    got, expected = ev.build_hierarchy(algebra), oracle_hierarchy(algebra)
    assert got.levels == expected.levels
    assert hierarchy_flows(got) == expected.flows
    assert all(block_of(got, g) == expected.coord[g] for g in range(algebra.dimension))


@settings(max_examples=40, deadline=None)
@given(algebras(), st.integers(50, 3000))
def test_entries_and_nonzero_count_match_pair_loop(algebra, chunk):
    check_entries(algebra, chunk)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_hierarchy_matches_subset_search(algebra):
    check_hierarchy(algebra)


PATH8, EDGELESS = tuple(zip(range(7), range(1, 8))), ()


@pytest.mark.parametrize(
    "n, k, edges",
    [
        pytest.param(7, 2, PATH8[:6], id="path n=7, k=2"),
        pytest.param(8, 2, PATH8, id="path n=8, k=2"),
        pytest.param(7, 2, EDGELESS, id="edgeless n=7, k=2"),
        pytest.param(8, 2, EDGELESS, id="edgeless n=8, k=2"),
        pytest.param(3, 3, ((0, 2),), id="{0,2},{1}, k=3"),
        pytest.param(4, 3, ((0, 2), (1, 3)), id="{0,2},{1,3}, k=3"),
        pytest.param(4, 3, ((0, 3),), id="{0,3},{1},{2}, k=3"),
        pytest.param(4, 3, EDGELESS, id="edgeless n=4, k=3"),
        pytest.param(3, 4, ((0, 2),), id="{0,2},{1}, k=4"),
        pytest.param(3, 4, EDGELESS, id="edgeless n=3, k=4"),
        pytest.param(2, 4, ((0, 1),), id="path n=2, k=4"),
        pytest.param(1, 1, EDGELESS, id="n=1, k=1"),
        pytest.param(4, 1, PATH8[:3], id="path n=4, k=1"),
        pytest.param(3, 1, EDGELESS, id="edgeless n=3, k=1"),
    ],
)
def test_flows_match_sub_class_search(n, k, edges):
    """The flows read off the children sets equal the 3-ary sub-class search, values and dtype, on graphs past the
    subset-search oracle's reach and on components that interleave the vertices, such as {0,2},{1}."""
    measure = ev.from_weights(np.random.default_rng(n * 10 + k).uniform(0.1, 1.0, size=k**n), n, k)
    algebra = ev.build_algebra(ev.Graph(n, frozenset(edges)), ev.StateSpace(k), measure)
    hierarchy = ev.build_hierarchy(algebra)
    for got, want in zip((hierarchy.flow_source, hierarchy.flow_target), oracle_flows(algebra.matrix.layout)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=30, deadline=None)
@given(algebras(), st.integers(0, 2**32 - 1))
def test_subalgebra_queries_match_search(algebra, seed):
    check_queries(algebra, seed)


@pytest.mark.parametrize(
    "n, k, edges",
    [
        (1, 1, ()),
        (5, 1, ((0, 1), (1, 2), (2, 3), (3, 4))),
        (3, 1, ((0, 1), (1, 2), (0, 2))),
        (1, 2, ()),
        (1, 5, ()),
        (1, 16, ()),
    ],
)
def test_structure_counts_closed_form_at_the_edges(n, k, edges):
    """One state, where the pair space is one diagonal generator and the counts are ``(1, 1, 0)``, and one vertex,
    where the cells are the states: ``(k^2n, k^n, k^n (k^n - 1) / 2)`` against the counts off the pair-loop rows."""
    measure = ev.from_weights(np.random.default_rng(n * 100 + k).uniform(0.1, 1.0, size=k**n), n, k)
    algebra = ev.build_algebra(ev.Graph(n, frozenset(edges)), ev.StateSpace(k), measure)
    kn = k**n
    assert ev.structure_counts(algebra) == ev.StructureCounts(kn * kn, kn, kn * (kn - 1) // 2)
    assert ev.structure_counts(algebra) == oracle_counts(oracle_supports(algebra)[0], kn)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.integers(0, 2**32 - 1))
def test_arithmetic_matches_dict_accumulation(algebra, seed):
    check_arithmetic(algebra, seed)


@pytest.mark.parametrize("level", [1, 6])
def test_cancelling_pair_multiplies_to_zero(level):
    """``(a,b)`` and ``(b,a)`` share a row class, so opposite signs cancel exactly.

    On the 4,096-generator edgeless algebra a level-1 class expands to 4
    entries, which ``combine`` merges by sorting; a level-6 class expands
    to 4,096, which it sums over all columns.
    """
    algebra = edgeless_six()
    a, b = 0, 2**level - 1  # the cells differ on the first `level` vertices
    forward, backward = a * algebra.kn + b, b * algebra.kn + a
    assert algebra.matrix.layout.row_level[algebra.matrix.layout.gen_row[forward]] == level
    dense = 4**level * algebra_module._DENSE_SHARE >= algebra.dimension
    assert dense == (level == 6)
    x = ev.AlgebraElement({forward: 1.0, backward: 1.0})
    y = ev.AlgebraElement({forward: 1.0, backward: -1.0})
    product = algebra.multiply(x, y)
    assert product.is_zero() and algebra.multiply(y, x).is_zero()
    assert all(abs(v) >= algebra_module.COEFF_DROP for v in product.coeffs.values())
    # the same pair with equal signs keeps the whole doubled row
    assert algebra.multiply(x, x).coeffs == {j: 2 * v for j, v in algebra.row(forward).items()}


def test_square_is_product_on_every_generator():
    """One element holding all 6,561 generators of a 3-state, 4-vertex edgeless algebra.

    For 7 of these coefficients ``v ** 2`` and ``v * v`` differ in the last bit.
    """
    rng = np.random.default_rng(1)
    measure = ev.from_weights(rng.uniform(0.1, 1.0, size=81), 4, 3)
    algebra = ev.build_algebra(ev.Graph(4), ev.StateSpace(3), measure)
    x = ev.AlgebraElement(dict(enumerate(rng.uniform(-1.0, 1.0, size=algebra.dimension).tolist())))
    assert len(x.coeffs) == 6561
    check_square_is_product(algebra, x)


@settings(max_examples=40, deadline=None)
@given(algebras(), st.integers(0, 2**32 - 1))
def test_square_equals_product_with_a_copy(algebra, seed):
    """``square(x)`` equals ``multiply`` with a copy of ``x``, whose key array is another object, in keys, order and
    bits.  A product with as many keys, most of them others, keeps only the shared ones: the sort-merge oracle's
    result exactly."""
    rng = np.random.default_rng(seed)
    dim = algebra.dimension
    gens = rng.choice(dim, int(rng.integers(1, min(dim, 40) + 1)), replace=False)
    x = ev.AlgebraElement(dict(zip(gens.tolist(), rng.uniform(-1.0, 1.0, len(gens)).tolist())))
    copied = ev.AlgebraElement(dict(x.coeffs.items()))
    assert copied.coeffs._keys is not x.coeffs._keys
    square, product = algebra.square(x).coeffs, algebra.multiply(x, copied).coeffs
    assert list(square) == list(product)
    assert [v.hex() for v in square.values()] == [v.hex() for v in product.values()]
    y = ev.AlgebraElement(dict(zip(((gens + 1) % dim).tolist(), rng.uniform(-1.0, 1.0, len(gens)).tolist())))
    shared = sorted(x.coeffs.keys() & y.coeffs.keys())
    check_exact(algebra, algebra.multiply(x, y), shared, [x.coeffs[i] * y.coeffs[i] for i in shared])


def test_square_retains_only_its_two_arrays():
    """The square of 200 generators of the 4,096-generator edgeless algebra has all 4,096 coefficients: as int64 keys
    and float64 values they take 64 KiB, where a ``{int: float}`` dict of them held about 0.4 MiB."""
    algebra = edgeless_six()
    gens = np.random.default_rng(0).choice(algebra.dimension, 200, replace=False)
    x = ev.AlgebraElement({int(g): 0.5 + g / 9000 for g in gens})
    algebra.square(x)
    tracemalloc.start()
    try:
        squared = algebra.square(x)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(squared.coeffs) == algebra.dimension
    assert retained <= 96 * 2**10


def test_edgeless_six_vertices_match_oracles():
    algebra = edgeless_six()
    check_entries(algebra, 5000)
    check_hierarchy(algebra)
    check_queries(algebra, 6)
    check_arithmetic(algebra, 6)


def write_like_writers(algebra, out: Path, entries):
    """``expected.csv`` and ``expected.json`` from ``csv.writer`` and ``json.dump``."""
    payload = {
        "schema_version": 1,
        "vertices": algebra.graph.vertex_count,
        "states": algebra.space.k,
        "dimension": algebra.dimension,
        "labels": [algebra.pair_label(i) for i in range(algebra.dimension)],
        "entries": entries,
    }
    with open(out / "expected.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "col", "value"])
        writer.writerows([i, j, repr(v)] for i, j, v in entries)
    with open(out / "expected.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


@settings(max_examples=25, deadline=None)
@given(algebras(max_n=3, labels=True))
def test_exports_match_csv_and_json_writers(algebra):
    """Under the default chunk size and under one of 7, whose text slices split the distinct coefficients."""
    n, k = algebra.graph.vertex_count, algebra.space.k
    assert algebra.cell_labels() == [ev.Cell.from_index(i, n, k).label(algebra.space) for i in range(k**n)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_like_writers(algebra, out, oracle_entries(algebra))
        for chunk in (algebra_module._CHUNK_ENTRIES, 7):
            # a fresh matrix, so that the text table is built under this chunk size
            fresh = ev.build_algebra(algebra.graph, algebra.space, algebra.measure)
            with mock.patch.object(algebra_module, "_CHUNK_ENTRIES", chunk):
                ev.export_matrix_csv(fresh, out / "matrix.csv")
                ev.export_matrix_json(fresh, out / "matrix.json")
            for name in ("csv", "json"):
                assert (out / f"matrix.{name}").read_bytes() == (out / f"expected.{name}").read_bytes()


@st.composite
def build_scenarios(draw, max_n=3):
    """Scenarios for ``build``: random edges, states from ``LABEL_POOL``, random couplings and fields."""
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from([2, 3]))
    vertices = [f"v{i}" for i in range(n)]
    edges = [[vertices[a], vertices[b]] for a, b in itertools.combinations(range(n), 2) if draw(st.booleans())]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    couplings = [rng.uniform(-1.0, 1.0, size=(k, k)) for _ in edges]
    return {
        "schema_version": 1,
        "graph": {"vertices": vertices, "edges": edges},
        "states": {"states": list(draw(st.permutations(LABEL_POOL))[:k])},
        "measure": {"hamiltonian": {
            "beta": 1.0,
            "pair_coupling": [{"edge": e, "matrix": (m + m.T).tolist()} for e, m in zip(edges, couplings)],
            "site_field": [{"vertex": v, "values": rng.uniform(-1.0, 1.0, size=k).tolist()} for v in vertices],
        }},
    }


@settings(max_examples=25, deadline=None)
@given(build_scenarios())
def test_build_writes_what_the_writers_would(scenario):
    """``build`` writes both files in one pass; each export alone writes the same bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        path = out / "scenario.json"
        path.write_text(json.dumps(scenario))
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["build", "--scenario", str(path), "--out", str(out / "build")]) == 0
        loaded = cli.load_scenario(path)
        algebra = ev.build_algebra(loaded.graph, loaded.space, loaded.measure)
        write_like_writers(algebra, out, oracle_entries(algebra))
        ev.export_matrix_csv(algebra, out / "alone.csv")
        ev.export_matrix_json(algebra, out / "alone.json")
        for name in ("csv", "json"):
            expected = (out / f"expected.{name}").read_bytes()
            assert (out / "build" / f"matrix.{name}").read_bytes() == expected
            assert (out / f"alone.{name}").read_bytes() == expected


def potts_labelled(n, edges, names):
    """The algebra of ``n`` vertices, ``edges`` and the states ``names`` under the Potts measure J=1, beta=0.7."""
    graph, k = ev.Graph(n, frozenset(edges)), len(names)
    return ev.build_algebra(graph, ev.StateSpace(k, names), ev.gibbs_measure(ev.potts_hamiltonian(graph, k, 1.0, 0.7)))


@pytest.mark.parametrize(
    "build, n, edges, names, chunks",
    [
        pytest.param(labelled, 3, {(0, 1)}, ('q"', "\\", "∑"), 2, id="edge plus vertex, k=3"),
        pytest.param(labelled, 6, set(), ("é", "\t"), 245, id="edgeless n=6, k=2"),
        # 6,561 labels that need escaping, past several 1,024-row batches
        pytest.param(labelled, 4, {(0, 1), (2, 3)}, ('q"', "\\", "∑"), 22, id="two edges, k=3"),
        # a Potts measure ties most of its 16,192 coefficients
        pytest.param(potts_labelled, 6, set(zip(range(5), range(1, 6))), ('q"', "é"), 4, id="Potts path n=6, k=2"),
        pytest.param(labelled, 1, set(), ("∑",), 1, id="one vertex, one state"),
    ],
)
def test_exports_match_writers_across_chunks(tmp_path, build, n, edges, names, chunks):
    """Entries that span several 4,096-entry chunks are formatted from one value table; one entry makes one chunk."""
    algebra = build(n, edges, names)
    entries = oracle_entries(algebra)
    assert len(list(algebra.matrix.entry_texts())) == chunks
    assert (len(entries) > 4096) == (chunks > 1)
    write_like_writers(algebra, tmp_path, entries)
    ev.export_matrix_csv(algebra, tmp_path / "matrix.csv")
    ev.export_matrix_json(algebra, tmp_path / "matrix.json")
    for name in ("csv", "json"):
        assert filecmp.cmp(tmp_path / f"matrix.{name}", tmp_path / f"expected.{name}", shallow=False)


def test_write_joined_shares_text_columns_across_files():
    """Every file gets the array columns, its own text of each tuple column and, on its first batch only, its own
    ``first``; 5,000 rows span five 1,024-row batches."""
    rows = np.array([str(i) for i in range(5000)], dtype=object)
    for first in (None, ("<", "[")):
        files = io.StringIO(), io.StringIO()
        algebra_module.write_joined(files, ((";", "|"), rows, "=", rows), first)
        for i, fh in enumerate(files):
            expected = "".join(f"{(';', '|')[i]}{row}={row}" for row in rows.tolist())
            assert fh.getvalue() == (expected if first is None else first[i] + expected[1:])
    fh = io.StringIO()
    algebra_module.write_joined((fh,), (rows, "-"), "x")
    assert fh.getvalue() == "x-" + "".join(f"{row}-" for row in rows[1:].tolist())


def test_entry_chunks_and_texts_share_one_walk():
    """Chunks of 1, 7 and 4,096 entries, with rows of 256 and 1,024 entries wider than the small ones.

    Arrays and texts cut at the same rows, keep rows ascending and match
    the pair-loop entries; the rows after a chunk's first hold fewer
    entries than the chunk size, so a chunk of size 1 holds one row.
    """
    rng = np.random.default_rng(5)
    algebras = [
        ev.build_algebra(ev.Graph(5), ev.StateSpace(2), ev.from_weights(rng.uniform(0.1, 1.0, size=32), 5, 2)),
        ev.build_algebra(
            ev.Graph(3, frozenset({(0, 1)})), ev.StateSpace(3), ev.from_weights(rng.uniform(0.1, 1.0, size=27), 3, 3)
        ),
    ]
    for algebra in algebras:
        expected = oracle_entries(algebra)
        texts = [(str(r), str(c), repr(v)) for r, c, v in expected]
        for chunk in (1, 7, 4096):
            with mock.patch.object(algebra_module, "_CHUNK_ENTRIES", chunk):
                arrays = list(algebra.matrix.entry_chunks())
                columns = list(algebra.matrix.entry_texts())
            assert [tuple(map(len, texts)) for texts in columns] == [(len(rows),) * 3 for rows, _, _ in arrays]
            assert all(np.count_nonzero(rows != rows[0]) < chunk for rows, _, _ in arrays)
            assert all(a[0][-1] < b[0][0] for a, b in zip(arrays, arrays[1:]))
            got = [e for rows, cols, vals in arrays for e in zip(rows.tolist(), cols.tolist(), vals.tolist())]
            assert got == expected
            assert [entry for rows, cols, vals in columns for entry in zip(rows, cols, vals)] == texts
        assert len(arrays) > 1


def test_only_an_export_builds_the_text_table(tmp_path, monkeypatch):
    """``build_algebra``, ``hierarchy``, element arithmetic and the subalgebra queries cache nothing on the matrix,
    neither the class-entry columns nor the texts, and ``isocheck`` builds no algebra; ``build`` caches both, in the
    text table."""
    built = []
    monkeypatch.setattr(cli, "build_algebra", lambda *args: built.append(ev.build_algebra(*args)) or built[-1])
    edges = [[a, b] for a, b in zip(SIX, SIX[1:])]
    first = scenario_file(tmp_path / "a.json", SIX, edges, ["a", "b"])
    second = scenario_file(tmp_path / "b.json", SIX, edges, ["a", "b"], {"hamiltonian": {"model": "potts", "beta": 2.0}})
    for argv in (["hierarchy", "--scenario", first], ["isocheck", "--scenario", first, "--scenario-b", second]):
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert len(built) == 1
    fresh = set(ev.build_algebra(built[0].graph, built[0].space, built[0].measure).matrix.__dict__)
    algebra = built[0]
    x = ev.AlgebraElement({g: 0.5 + g / 7000 for g in range(0, algebra.dimension, 7)})
    algebra.square(x)
    algebra.multiply(x, algebra.generator(7))
    algebra.row(5)
    structure.generated_subalgebra(algebra, [5, 9])
    structure.descent_chain(algebra, 9)
    assert all(set(each.matrix.__dict__) == fresh for each in built)
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["build", "--scenario", first, "--out", str(tmp_path)]) == 0
    assert set(built[-1].matrix.__dict__) == fresh | {"_text_table"}
    cols, places, *_ = built[-1].matrix._text_table
    assert len(cols) == len(places) and cols.dtype == places.dtype == np.int32


def assert_same_report(got, expected):
    """Assert two reports equal; a difference is shown as its first offset and a short window, not a full diff."""
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        window = slice(max(0, at - 40), at + 40)
        pytest.fail(f"reports of {len(got)} and {len(expected)} characters differ from offset {at}: "
                    f"{got[window]!r} != {expected[window]!r}", pytrace=False)


def dumped(payload) -> str:
    fh = io.StringIO()
    json.dump(payload, fh, sort_keys=True, indent=1)
    fh.write("\n")
    return fh.getvalue()


def hierarchy_text(payload) -> str:
    """``hierarchy.txt`` from a report payload: the level count, then each level from the top, one line per block."""
    lines = [f"{payload['level_count']} levels"]
    for lvl in range(len(payload["levels"]) - 1, -1, -1):
        blocks = payload["levels"][lvl]
        lines.append(f"level {lvl}: {len(blocks)} block(s)")
        for block in blocks:
            lines.append("  " + " ".join(block))
    return "\n".join(lines) + "\n"


def oracle_hierarchy_payload(algebra) -> dict:
    """The hierarchy report's payload, in plain lists, from the search oracles."""
    hierarchy = oracle_hierarchy(algebra)
    labels = [algebra.pair_label(i) for i in range(algebra.dimension)]
    counts = None
    if len(ev.components(algebra.graph)) == 1:
        counts = dataclasses.asdict(oracle_counts(oracle_supports(algebra)[0], algebra.kn))
    return {
        "schema_version": 1,
        "level_count": len(hierarchy.levels),
        "levels": [[[labels[g] for g in block] for block in blocks] for blocks in hierarchy.levels],
        "counts": counts,
        "flows": [[list(a), list(b)] for a, b in hierarchy.flows],
    }


# draws stop at 729 generators, so a failing draw shrinks in seconds; n=4, k=3 (6,561 generators, flows
# past several 1,024-row batches) comes as explicit examples, which run first and are not shrunk
@settings(max_examples=40, deadline=None)
@given(algebras(labels=True, max_dimension=729))
@example(labelled(4, set(), ('q"', "\\", "∑")))
@example(labelled(4, {(0, 1), (1, 2), (2, 3)}, ("é", "\t", "x y")))
def test_hierarchy_report_matches_json_dump(algebra):
    payload = oracle_hierarchy_payload(algebra)
    hierarchy = ev.build_hierarchy(algebra)
    json_fh, text_fh = io.StringIO(), io.StringIO()
    cli._write_hierarchy(json_fh, hierarchy, algebra, payload["counts"])
    cli._write_hierarchy_text(text_fh, hierarchy, algebra)
    assert_same_report(json_fh.getvalue(), dumped(payload))
    assert_same_report(text_fh.getvalue(), hierarchy_text(payload))


def scenario_file(path, vertices, edges, names, measure=None):
    path.write_text(json.dumps({
        "schema_version": 1,
        "graph": {"vertices": vertices, "edges": edges},
        "states": {"states": names},
        "measure": measure or {"hamiltonian": {"model": "potts", "J": 1.0, "beta": 0.7}},
    }))
    return str(path)


SIX = [f"v{i}" for i in range(6)]
HIERARCHY_SCENARIOS = {
    "connected path": (SIX, [[a, b] for a, b in zip(SIX, SIX[1:])], ['q"', "\\"], dict),
    # 7,168 flows: seven batches of at most 1,024
    "two paths": (SIX, [["v0", "v1"], ["v1", "v2"], ["v3", "v4"], ["v4", "v5"]], ["é", "\t"], type(None)),
    "one vertex, one state": (["only"], [], ["∑"], dict),
}


@pytest.mark.parametrize("vertices, edges, names, counts", HIERARCHY_SCENARIOS.values(), ids=list(HIERARCHY_SCENARIOS))
def test_hierarchy_json_is_json_dump_of_its_payload(tmp_path, capsys, vertices, edges, names, counts):
    scenario = scenario_file(tmp_path / "s.json", vertices, edges, names)
    loaded = cli.load_scenario(scenario)
    payload = oracle_hierarchy_payload(ev.build_algebra(loaded.graph, loaded.space, loaded.measure))
    assert isinstance(payload["counts"], counts)
    assert (payload["flows"] == []) == (len(vertices) == 1)
    assert (len(payload["flows"]) > 4096) == (counts is type(None))
    expected = dumped(payload).encode("ascii")
    assert cli.main(["hierarchy", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    assert_same_report((tmp_path / "hierarchy.json").read_bytes(), expected)
    assert_same_report((tmp_path / "hierarchy.txt").read_text(), hierarchy_text(payload))
    capsys.readouterr()
    assert cli.main(["hierarchy", "--scenario", scenario, "--out", str(tmp_path), "--stdout"]) == 0
    assert capsys.readouterr().out.encode("ascii") == expected


def test_reports_build_no_levels_and_no_pair_labels(tmp_path, monkeypatch):
    """``hierarchy`` writes from the arrays: the tuples of ``levels`` are never built.  ``hierarchy`` and ``build``
    label generators from the ``k^n`` cell labels alone: no pair cell is made or labelled one by one."""
    def refused(*args):
        raise AssertionError("a pair label made one generator at a time")

    monkeypatch.setattr(ev.EvolutionAlgebra, "pair_label", refused)
    monkeypatch.setattr(ev.EvolutionAlgebra, "pair_from_index", refused)
    monkeypatch.setattr(ev.PairCell, "label", refused)
    built = []
    monkeypatch.setattr(cli, "build_hierarchy", lambda algebra: built.append(ev.build_hierarchy(algebra)) or built[-1])
    scenario = scenario_file(tmp_path / "s.json", SIX, [[a, b] for a, b in zip(SIX, SIX[1:])], ["a", "b"])
    assert cli.main(["hierarchy", "--scenario", scenario, "--out", str(tmp_path / "hierarchy")]) == 0
    assert len(built) == 1
    assert "levels" not in built[0].__dict__
    assert cli.main(["build", "--scenario", scenario, "--out", str(tmp_path / "build")]) == 0


def tampered(algebra, how, rng):
    """A copy of ``algebra`` whose matrix's layout has its ``gen_row`` or ``level_start`` changed."""
    m = copy.copy(algebra.matrix.layout)
    if how == "swap":
        i, j = rng.integers(m.dimension, size=2)
        m.gen_row = m.gen_row.copy()
        m.gen_row[[i, j]] = m.gen_row[[j, i]]
    elif how == "shuffle":
        # gen_row repeats values, so a permutation can give it back unchanged;
        # it always holds two distinct values, so some permutation changes it
        shuffled = rng.permutation(m.gen_row)
        while np.array_equal(shuffled, m.gen_row):
            shuffled = rng.permutation(m.gen_row)
        m.gen_row = shuffled
    elif how == "extra level":
        m.level_start = np.append(m.level_start, m.level_start[-1])
    elif how == "moved boundary":
        i = int(rng.integers(1, len(m.level_start) - 1))
        old, lo, hi = m.level_start[i], m.level_start[i - 1], m.level_start[i + 1]
        m.level_start = m.level_start.copy()
        m.level_start[i] = rng.choice([v for v in range(lo, hi + 1) if v != old])
    matrix = copy.copy(algebra.matrix)
    matrix.layout = m
    return dataclasses.replace(algebra, matrix=matrix)


TAMPERS = ("none", "swap", "shuffle", "extra level", "moved boundary")


@settings(max_examples=60, deadline=None)
@given(algebras(), st.integers(0, 2**32 - 1), st.sampled_from(TAMPERS))
def test_iso_check_matches_hierarchy_oracle(left, seed, how):
    """Two measures per graph, the second matrix possibly tampered with.  Untampered, the oracle reads the
    theorem's report off both matrices; tampered, it sees the change, while ``iso_check`` reads no matrix at all."""
    rng = np.random.default_rng(seed)
    n, k = left.graph.vertex_count, left.space.k
    measure = ev.from_weights(rng.uniform(0.1, 1.0, size=k**n), n, k)
    built = ev.build_algebra(left.graph, left.space, measure)
    right = tampered(built, how, rng)
    if how == "none":
        assert ev.iso_check(left, right) == oracle_iso(left, right)
        assert ev.iso_check(right, left) == oracle_iso(right, left)
        assert oracle_levels(left.matrix.layout) == oracle_hierarchy(left).levels
        assert ev.iso_check(left, right).verdict == "isomorphic-per-theorem"
    else:
        changed = not all(np.array_equal(getattr(right.matrix.layout, name), getattr(built.matrix.layout, name))
                          for name in ("gen_row", "level_start"))
        assert changed or how == "swap"  # a swap within one class changes nothing
        for report in (oracle_iso(left, right), oracle_iso(right, left)):
            assert (report.verdict == "not-isomorphic-per-theorem") == changed
        if how != "swap":
            assert not oracle_iso(left, right).skeleton_equal
        matrixless = types.SimpleNamespace(graph=right.graph, space=right.space)
        assert ev.iso_check(left, matrixless) == ev.IsoReport(True, True, "isomorphic-per-theorem")
    if how != "moved boundary":  # a moved boundary breaks the flow search, not the levels
        assert ev.build_hierarchy(right).levels == oracle_levels(right.matrix.layout)


def test_iso_check_builds_no_hierarchy(tmp_path, monkeypatch):
    """``isocheck`` loads and checks both scenarios and builds no hierarchy, heredity matrix or row-class layout."""
    def refuse(*args):
        raise AssertionError("isocheck built a hierarchy, a heredity matrix or a layout")

    monkeypatch.setattr(structure, "build_hierarchy", refuse)
    monkeypatch.setattr(cli, "build_hierarchy", refuse)
    monkeypatch.setattr(algebra_module, "HeredityMatrix", refuse)
    monkeypatch.setattr(algebra_module, "RowClassLayout", refuse)
    edges = [[a, b] for a, b in zip(SIX, SIX[1:])]
    first = scenario_file(tmp_path / "a.json", SIX, edges, ["a", "b"])
    weights = {f"({','.join(c)})": 1.0 + i for i, c in enumerate(itertools.product("ab", repeat=6))}
    second = scenario_file(tmp_path / "b.json", SIX, edges, ["a", "b"], {"weights": weights})
    argv = ["isocheck", "--scenario", first, "--scenario-b", second, "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "isocheck.json").read_text())
    assert report["verdict"] == "isomorphic-per-theorem"


def test_build_formats_each_distinct_coefficient_once(tmp_path, monkeypatch):
    """Both exports of one ``build`` read one ``repr`` table, under random weights and under a Potts measure,
    which ties most coefficients across row classes and levels.  With chunks of 7 entries the texts are made over
    many slices of the distinct coefficients, with the same calls and the writers' bytes."""
    names = ["x", "y", "z"]
    rng = np.random.default_rng(3)
    cells = itertools.product(names, repeat=3)
    weights = {f"({','.join(c)})": w for c, w in zip(cells, rng.uniform(0.1, 1.0, 27).tolist())}
    for measure, chunk in itertools.product(({"weights": weights}, None), (algebra_module._CHUNK_ENTRIES, 7)):
        scenario = scenario_file(tmp_path / "s.json", SIX[:3], [["v0", "v1"]], names, measure)
        calls = []
        monkeypatch.setattr(algebra_module, "repr", lambda v: calls.append(v) or builtins.repr(v), raising=False)
        monkeypatch.setattr(algebra_module, "_CHUNK_ENTRIES", chunk)
        assert cli.main(["build", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        monkeypatch.undo()
        loaded = cli.load_scenario(scenario)
        algebra = ev.build_algebra(loaded.graph, loaded.space, loaded.measure)
        entries = oracle_entries(algebra)
        distinct = {v for _, _, v in entries}
        if measure:
            assert len(distinct) > 100
        else:
            assert len(distinct) < len(entries) / 100
        assert sorted(calls) == sorted(distinct)
        write_like_writers(algebra, tmp_path, entries)
        for name in ("csv", "json"):
            assert (tmp_path / f"matrix.{name}").read_bytes() == (tmp_path / f"expected.{name}").read_bytes()
