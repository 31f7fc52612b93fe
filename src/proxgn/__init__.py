"""Proximal Gauss-Newton solver for penalized nonlinear least squares.

The outer iteration x+ = prox_J^{H(x)}(x - F'(x)^dag F(x)) combines a
Gauss-Newton step with a proximity operator in the metric
H(x) = F'(x)^T F'(x).  The :mod:`radius` module quantifies the local
convergence ball under generalized Lipschitz assumptions; :mod:`problems`
ships box-constrained benchmark fits and :mod:`cli` a benchmark runner.

Each re-exported module declares its public API in its own ``__all__``;
the package's ``__all__`` is their concatenation.
"""
from . import linalg, prox, radius, solver, problems
from .linalg import *  # noqa: F403
from .prox import *  # noqa: F403
from .radius import *  # noqa: F403
from .solver import *  # noqa: F403
from .problems import *  # noqa: F403

__version__ = "0.1.0"

__all__ = []
__all__ += linalg.__all__
__all__ += prox.__all__
__all__ += radius.__all__
__all__ += solver.__all__
__all__ += problems.__all__
