"""Signal-quality tail distributions in multi-tier Poisson cellular networks.

The package models base stations as homogeneous Poisson fields in 1, 2 or 3
dimensions and computes the distribution of the carrier-to-interference
ratio C/I and the carrier-to-interference-plus-noise ratio C/(I+N) at a
receiver served by the strongest station.  Three independent routes are
provided and cross-validate each other:

* exact semi-analytic tails (:mod:`scsnet.analytic`, :mod:`scsnet.numerics`):
  characteristic-function inversion below threshold 1, and exact
  Campbell-Mecke closed forms above it (the sinc power law for C/I, one
  smooth quadrature for C/(I+N));
* the strongest-two tail: one closed form on [0, inf), its G one quadrature;
* a reproducible Monte Carlo oracle (:mod:`scsnet.montecarlo`).

:mod:`scsnet.network` reduces any multi-tier, faded, sectored deployment to the
canonical unit-density system that all analytic machinery consumes, and
:mod:`scsnet.cli` exposes the batch workflow (``scs reduce|tail|table|lookup|figures``).
"""

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package republishes them all.
from .network import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
