"""isokit: minimum-area isosceles containers of a triangle.

Constructs the nine special isosceles containers of a scalene triangle,
selects the minimum-area container(s) from the closed-form candidate set,
analyzes the extremal area ratios (the sqrt(2) and golden-ratio suprema and
the unique three-way-tie triangle), and cross-checks everything against a
brute-force supporting-line oracle.
"""

from . import containers, geo, minimize, oracle, sampling
from .containers import *  # noqa: F403
from .geo import *  # noqa: F403
from .minimize import *  # noqa: F403
from .oracle import *  # noqa: F403
from .sampling import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (geo, containers, minimize, oracle, sampling) for name in module.__all__]
