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
* the strongest-two-interferer closed form on the whole range;
* a reproducible Monte Carlo oracle (:mod:`scsnet.montecarlo`).

:mod:`scsnet.network` reduces any multi-tier, faded, sectored deployment to the
canonical unit-density system that all analytic machinery consumes, and
:mod:`scsnet.cli` exposes the batch workflow (``scs reduce|tail|table|lookup|figures``).
"""

__version__ = "0.1.0"

from .network import (  # noqa: F401
    CanonicalSystem,
    DegenerateNetworkError,
    Dimension,
    Fading,
    LogNormalFading,
    MomentFading,
    NetworkSpec,
    NoFading,
    PowerPmf,
    Sector,
    SpecError,
    Tier,
    apply_sectoring,
    as_network_spec,
    canonicalize,
    fading_moment,
    load_spec,
    noise_after_adding_tiers,
    power_moment,
    sigma_db_to_natural,
    spec_from_json,
    superpose_tiers,
)
from .numerics import (  # noqa: F401
    InversionError,
    QuadratureResult,
    g_integral,
    invert_tail,
    kummer_1f1_neg_a,
)
from .analytic import (  # noqa: F401
    FewBsParams,
    LookupRangeError,
    LookupTable,
    TailCurve,
    build_lookup_table,
    charfn_interference_given_r1,
    charfn_inv_ci,
    charfn_inv_cin,
    conditional_tail_mean,
    lookup,
    tail_ci,
    tail_ci2,
    tail_ci_closed,
    tail_cin,
    tail_cin_closed,
)
from .montecarlo import (  # noqa: F401
    EmpiricalTail,
    Realization,
    RngSeed,
    UnsupportedSettingError,
    default_r_max,
    empirical_tail_ci,
    empirical_tail_cin,
    empirical_tail_fewbs,
    realize,
    sample_field,
    substream,
)
