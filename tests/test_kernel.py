"""The signature kernel against the pair-loop and subset-search oracles.

Rows, entries, hierarchies, the nonzero count and the exported bytes must
equal what the code replaced by the kernel produced, exactly.
"""

import csv
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import evoalg as ev

from conftest import oracle_entries, oracle_hierarchy

LABEL_POOL = ("a", "A", 'q"', "é", "\\", "ü,", "∑", "x y", "\t")


@st.composite
def algebras(draw, max_n=4, labels=False):
    """Graphs on up to ``max_n`` vertices with random edges, k in {2, 3}, random weights."""
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from([2, 3]))
    pairs = list(itertools.combinations(range(n), 2))
    edges = frozenset(p for p in pairs if draw(st.booleans()))
    names = tuple(draw(st.permutations(LABEL_POOL))[:k]) if labels else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    measure = ev.from_weights(rng.uniform(0.1, 1.0, size=k**n), n, k)
    return ev.build_algebra(ev.Graph(n, edges), ev.StateSpace(k, names), measure)


def edgeless_six():
    rng = np.random.default_rng(6)
    measure = ev.from_weights(rng.uniform(0.1, 1.0, size=64), 6, 2)
    return ev.build_algebra(ev.Graph(6), ev.StateSpace(2), measure)


def check_entries(algebra, chunk):
    expected = oracle_entries(algebra)
    assert list(ev.matrix_entries(algebra)) == expected
    chunked = [
        entry
        for rows, cols, vals in algebra.matrix.entry_chunks(chunk)
        for entry in zip(rows.tolist(), cols.tolist(), vals.tolist())
    ]
    assert chunked == expected
    assert ev.nonzero_count(algebra.graph, algebra.space.k) == len(expected)


def check_hierarchy(algebra):
    got, expected = ev.build_hierarchy(algebra), oracle_hierarchy(algebra)
    assert got.levels == expected.levels
    assert got.flows == expected.flows
    assert all(got.block_of(g) == expected.block_of(g) for g in range(algebra.dimension))


@settings(max_examples=40, deadline=None)
@given(algebras(), st.integers(50, 3000))
def test_entries_and_nonzero_count_match_pair_loop(algebra, chunk):
    check_entries(algebra, chunk)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_hierarchy_matches_subset_search(algebra):
    check_hierarchy(algebra)


def test_edgeless_six_vertices_match_oracles():
    algebra = edgeless_six()
    check_entries(algebra, 5000)
    check_hierarchy(algebra)


@settings(max_examples=25, deadline=None)
@given(algebras(max_n=3, labels=True))
def test_exports_match_csv_and_json_writers(algebra):
    entries = oracle_entries(algebra)
    payload = {
        "schema_version": 1,
        "vertices": algebra.graph.vertex_count,
        "states": algebra.space.k,
        "dimension": algebra.dimension,
        "labels": [algebra.pair_label(i) for i in range(algebra.dimension)],
        "entries": [[i, j, v] for i, j, v in entries],
    }
    assert algebra.pair_labels() == payload["labels"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with open(out / "expected.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "col", "value"])
            writer.writerows([i, j, repr(v)] for i, j, v in entries)
        with open(out / "expected.json", "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        ev.export_matrix_csv(algebra, out / "matrix.csv")
        ev.export_matrix_json(algebra, out / "matrix.json")
        for name in ("csv", "json"):
            assert (out / f"matrix.{name}").read_bytes() == (out / f"expected.{name}").read_bytes()
