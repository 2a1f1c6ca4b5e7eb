"""Boltzmann measures on small graphs and their consistency property.

The measure weight of a cell is exp(-beta * energy) normalized over all
cells.  Conditioning on a boundary uses only the potentials that touch
the domain.  Marginalizing the full measure over a domain event agrees
with averaging the conditional probability over boundaries; the gap is
numerical noise in finite volume.
"""

import itertools
import math

import evoalg as ev
from evoalg.cells import Cell

path = ev.Graph(3, frozenset({(0, 1), (1, 2)}))
beta, coupling = 1.0, 1.0
h = ev.potts_hamiltonian(path, 2, coupling, beta)
mu = ev.gibbs_measure(h)

print("three-site path, two states, beta * J =", beta * coupling)
print("cell -> energy -> mass")
for idx in range(8):
    c = Cell.from_index(idx, 3, 2)
    print(f"  {c.states} -> {ev.hamiltonian_energy(h, c):+.0f} -> {mu.weights[c.index]:.6f}")

aligned = Cell.from_states((1, 1, 1), 2)
z = sum(
    math.exp(-beta * ev.hamiltonian_energy(h, Cell.from_index(i, 3, 2)))
    for i in range(8)
)
print("\nground-state mass:", mu.weights[aligned.index])
print("closed form      :", math.e**2 / z)

# conditional probability of the middle site given its two neighbors
for s in (1, 2):
    value = ev.conditional_prob(h, {0: 1, 2: 1}, {1: s})
    print(f"middle site = {s} given aligned neighbors: {value:.6f}")

# the marginal/conditional consistency identity, every small domain
print("\nconsistency gaps:")
worst = 0.0
for size in (1, 2):
    for domain in itertools.combinations(range(3), size):
        # one row per domain assignment, in itertools.product order
        rows = ev.dlr_table(h, domain)
        worst = max(worst, max(row.gap for row in rows))
print("  worst gap over all domains of size <= 2:", worst)

for states, row in zip(itertools.product((1, 2), repeat=2), ev.dlr_table(h, (0, 1))):
    print(f"  domain (0, 1) = {states}: marginal {row.lhs:.6f}, averaged conditional {row.rhs:.6f}")

# the identity is exact when the domain is the whole volume
result = ev.dlr_check(h, {0: 1, 1: 2, 2: 1})
print("  full-volume gap:", result.gap)
