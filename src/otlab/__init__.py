"""otlab: optimal transport over snowflake product metrics.

The package ships four layers:

* metric spaces (``metric``): the unit interval, Euclidean space, finite
  distance matrices, and the snowflake product of the interval with a base
  space;
* discrete measures (``measure``): canonical atom lists, convex
  combinations, pushforwards, disintegration along the first coordinate,
  and residual decompositions;
* exact transport (``solver``): a rational transportation simplex with
  dual certificates, Kantorovich-Rubinstein potentials, and cyclical
  monotonicity checks;
* structure probes (``isometry``, ``rigidity``): the interval flip and
  its fiberwise lift, coupling transforms, ratio-set scans, transport plan
  splitting, and geodesic extensions.

``campaign`` bundles randomized verification suites behind seeds, and
``cli`` exposes everything as the ``otlab`` command.

Each public module's ``__all__`` is its one list of public names; the
package re-exports those lists whole.
"""

from . import errors, isometry, measure, metric, rigidity, sampling, solver
from ._numbers import DEFAULT_TOL, format_number, parse_number
from .errors import *
from .metric import *
from .measure import *
from .solver import *
from .isometry import *
from .rigidity import *
from .sampling import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    "DEFAULT_TOL",
    "parse_number",
    "format_number",
    *metric.__all__,
    *measure.__all__,
    *solver.__all__,
    *isometry.__all__,
    *rigidity.__all__,
    *sampling.__all__,
]
