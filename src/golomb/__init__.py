"""Near-optimal Golomb rulers by difference-triangle construction.

Library layout:

* :mod:`golomb.core` -- rulers, difference triangles, gracefulness checks.
* :mod:`golomb.constructions` -- explicit ruler families and the
  quadratic-impossibility collision engine.
* :mod:`golomb.search` -- exact branch-and-bound optimum and benchmarking.
* :mod:`golomb.tails` -- builds and checks the search's tail table,
  ``tails.bin`` (a maintenance tool).
* :mod:`golomb.cli` -- command-line front end.
"""

from .core import (
    CollisionSite,
    DifferenceTriangle,
    GracefulnessReport,
    Ruler,
    build_difference_triangle,
    lower_bound,
    verify_graceful,
)
from .constructions import (
    CollisionWitness,
    QuadraticFamilyParams,
    TriangularParams,
    check_star_inequality,
    construct_cubic,
    construct_half_cubic,
    construct_powers_of_two,
    construct_triangular,
    cubic_bound,
    find_quadratic_collision,
    half_cubic_bound,
    half_cubic_modulus,
    pow2_bound,
    quadratic_sequence,
    shifted_cubic_bound,
)
from .search import (
    BenchRow,
    SearchConfig,
    SearchResult,
    compare_constructions,
    search_optimal,
)

__all__ = [
    "BenchRow",
    "CollisionSite",
    "CollisionWitness",
    "DifferenceTriangle",
    "GracefulnessReport",
    "QuadraticFamilyParams",
    "Ruler",
    "SearchConfig",
    "SearchResult",
    "TriangularParams",
    "build_difference_triangle",
    "check_star_inequality",
    "compare_constructions",
    "construct_cubic",
    "construct_half_cubic",
    "construct_powers_of_two",
    "construct_triangular",
    "cubic_bound",
    "find_quadratic_collision",
    "half_cubic_bound",
    "half_cubic_modulus",
    "lower_bound",
    "pow2_bound",
    "quadratic_sequence",
    "search_optimal",
    "shifted_cubic_bound",
    "verify_graceful",
]

__version__ = "0.1.0"
