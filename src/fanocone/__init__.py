"""Exact-arithmetic invariants of isolated Fano cone singularities.

Computes minimal discrepancy, Reeb-orbit index data, the first page of
the period-filtration spectral sequence for circle-equivariant positive
symplectic homology, and verifies the identity tying them together.
"""

from .cone_model import (
    ChartData,
    ConePresentation,
    Stratum,
    WeightedAction,
    from_weighted_action,
    validate_presentation,
)
from .discrepancy import DiscrepancyResult, minimal_discrepancy, shokurov_check
from .reeb_orbits import (
    OrbitFamily,
    TowerTable,
    enumerate_families,
    index_of_family_chart,
    index_of_family_weighted,
    inf_lsft,
    tower_table,
)
from .ss_engine import (
    E1Page,
    SHProfile,
    assemble_e1,
    certify_min_degree,
    degenerate_ranks,
    expected_sh_homology_ball,
)
from .sympath_index import DiagonalPath, IndexBundle, index_bundle, rs_index_factor

__version__ = "0.1.0"
