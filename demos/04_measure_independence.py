"""One graph, many measures, one zero pattern.

The coefficient values change with the measure, but which coefficients
vanish is decided by the graph alone.  So any two strictly positive
measures give matrices with identical sparsity and hierarchies with
identical block structure.  `iso_check` restates that theorem once the
graphs and state spaces agree, and builds no matrix; the row printed
below shows the shared zero pattern on two matrices.  The row classes
themselves are measure-free, so every further algebra is made with
`with_measure` over the reference algebra's layout object, and only its
weights are new.  Strict isomorphism, a
map `e_i -> c_i e_pi(i)` given by `(pi, c)`, stays open as ROADMAP item 8.
"""

import numpy as np

import evoalg as ev

graph = ev.Graph(3, frozenset({(0, 1), (1, 2)}))
space = ev.StateSpace(2)
rng = np.random.default_rng(2024)

reference = ev.build_algebra(
    graph, space, ev.from_weights(rng.uniform(0.1, 1.0, 8), 3, 2)
)
print("path on three vertices, two states, dimension", reference.dimension)

others = []
for trial in range(5):
    other = reference.with_measure(ev.from_weights(rng.uniform(0.1, 1.0, 8), 3, 2))
    others.append(other)
    report = ev.iso_check(reference, other)
    print(
        f"trial {trial}: support_equal={report.support_equal} "
        f"skeleton_equal={report.skeleton_equal} -> {report.verdict}"
    )

# same sparsity, different values
index = reference.pair_index(5 * reference.kn + 2)
row_a = reference.row(index)
other = reference.with_measure(ev.from_weights(rng.uniform(0.1, 1.0, 8), 3, 2))
others.append(other)
row_b = other.row(index)
print("\none row under two measures (same keys, different values):")
print("  keys equal:", sorted(row_a) == sorted(row_b))
print("  values a:", [round(v, 4) for _, v in sorted(row_a.items())])
print("  values b:", [round(v, 4) for _, v in sorted(row_b.items())])
shared = all(o.matrix.layout is reference.matrix.layout for o in others)
print(f"all {len(others)} further algebras share reference's layout object: {shared}")

hierarchy = ev.build_hierarchy(reference)
print(
    f"\nhierarchy: {hierarchy.level_count} levels with "
    f"{[len(level) for level in hierarchy.levels]} blocks per level"
)

counts = ev.structure_counts(reference)
print(
    f"counts: {counts.one_dimensional} singleton subalgebras, "
    f"{counts.four_dimensional} four-dimensional ones"
)
