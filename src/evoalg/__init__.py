"""Evolution algebras from finite graphs, state spaces and Gibbs measures.

The package builds the algebra whose generators are ordered pairs of cells
(state assignments on the vertices), with squaring coefficients given by a
strictly positive measure conditioned on componentwise children sets.  On
top of the construction it provides subalgebra and hierarchy analysis, the
measure-independence check of the zero pattern, and finite-volume
coefficient trends for Potts measures on growing lattice boxes.
"""

from .algebra import (
    AlgebraElement,
    EvolutionAlgebra,
    HeredityMatrix,
    build_algebra,
    export_matrix_csv,
    export_matrix_json,
    load_matrix_csv,
    load_matrix_json,
    matrix_entries,
    nonzero_count,
)
from .cells import (
    Cell,
    PairCell,
    StateSpace,
    Subcell,
    children_set,
    pair_children,
    restrict,
    state_space_from_json,
)
from .errors import BudgetError, ValidationError
from .graphs import (
    ComponentPartition,
    Graph,
    LatticeBox,
    components,
    graph_from_json,
    lattice_box,
)
from .limits import (
    CoefficientSequence,
    TailCell,
    VolumeScheme,
    coefficient_sequence,
    finite_volume_coeff,
    low_temp_limit_algebras,
)
from .measures import (
    ConditionalSpec,
    DlrGap,
    Hamiltonian,
    Measure,
    conditional_prob,
    dlr_check,
    dlr_table,
    from_weights,
    gibbs_measure,
    hamiltonian_energy,
    measure_from_json,
    potts_hamiltonian,
    product_mass,
    uniform_measure,
)
from .structure import (
    CollapsedTable,
    DescentChain,
    Hierarchy,
    IsoReport,
    StructureCounts,
    Subalgebra,
    build_hierarchy,
    collapse_by_symmetry,
    descent_chain,
    generated_subalgebra,
    iso_check,
    precedes,
    structure_counts,
)

__version__ = "0.1.0"
