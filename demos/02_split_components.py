"""Remove the edge and watch the children sets blow up.

With no edge the two vertices are separate components, so a child may mix
subcells across parents componentwise.  Pairs of cells that disagree on
both components then reach the whole cell space, which adds a third level
to the hierarchy.  When the measure has a symmetry, whole classes of
generators share one reduced squaring table.
"""

import numpy as np

import evoalg as ev
from evoalg.cells import Cell, PairCell

graph = ev.Graph(2)  # two vertices, no edges
space = ev.StateSpace(2, ("a", "A"))
parts = ev.components(graph)
print("components:", parts)

cells = sorted((Cell.from_index(i, 2, 2) for i in range(4)), key=lambda c: c.states)
aa, aA, Aa, AA = cells

# parents disagreeing on both components can produce any cell
wide = PairCell(aa, AA)
kids = ev.children_set(wide, parts)
print(f"children of {wide.label(space)}: {sorted(c.label(space) for c in kids)}")

# a measure with matching middle weights, so swapping aA and Aa is a symmetry
p1, p2, p4 = 0.1, 0.25, 0.4
raw = np.zeros(4)
for states, w in {(1, 1): p1, (1, 2): p2, (2, 1): p2, (2, 2): p4}.items():
    raw[Cell.from_states(states, 2).index] = w
mu = ev.from_weights(raw, 2, 2)
algebra = ev.build_algebra(graph, space, mu)

row = algebra.row(wide)
print(f"\n{wide.label(space)}^2 has {len(row)} terms; each is a plain product of masses")

hierarchy = ev.build_hierarchy(algebra)
print(f"hierarchy has {hierarchy.level_count} levels:")
for lvl in range(hierarchy.level_count - 1, -1, -1):
    labels = [
        "{" + " ".join(algebra.pair_label(g) for g in block) + "}"
        for block in hierarchy.levels[lvl]
    ]
    print(f"  level {lvl}: {' '.join(labels)}")

chain = ev.descent_chain(algebra, wide)
print(
    "\ndescent chain from", wide.label(space), ":",
    " -> ".join(p.label(space) for p in chain.elements),
)

# collapse the sixteen generators into six classes
classes = [
    [PairCell(AA, AA)],
    [PairCell(aa, aa)],
    [PairCell(aA, AA), PairCell(AA, aA), PairCell(Aa, AA), PairCell(AA, Aa)],
    [PairCell(aa, aA), PairCell(aA, aa), PairCell(aa, Aa), PairCell(Aa, aa)],
    [PairCell(aa, AA), PairCell(AA, aa)],
    [PairCell(aA, aA), PairCell(Aa, Aa), PairCell(aA, Aa), PairCell(Aa, aA)],
]
table = ev.collapse_by_symmetry(algebra, classes)
print("\nreduced squaring table (class representatives):")
for cid, row in enumerate(table.rows):
    terms = " + ".join(f"{v:.6f} e{j + 1}" for j, v in sorted(row.items()))
    print(f"  e{cid + 1}^2 = {terms}")

# with unequal middle weights the same classes are rejected
lopsided = ev.from_weights(np.array([0.1, 0.3, 0.2, 0.4]), 2, 2)
try:
    ev.collapse_by_symmetry(ev.build_algebra(graph, space, lopsided), classes)
except ev.ValidationError as exc:
    print("\nwithout the symmetry:", exc)
