"""Network description types and the reductions onto a canonical system.

A deployment is a stack of independent homogeneous Poisson fields of base
stations in 1, 2 or 3 dimensions.  Tier i has density lambda_i and constant
transmission power kappa_i, optionally behind an ideal sector antenna (gain
G_i over beamwidth theta_i).  Links may carry i.i.d. multiplicative shadow
fading.  Received power at the origin from a station at distance R is
K * Psi * R^-eps with path-loss exponent eps > l.

For signal-quality statistics every such network is equivalent to a single
unit-density, unit-power, fading-free field plus one scalar: the normalized
noise N' = N * lambda_eff^(-eps/l), where

    lambda_eff = sum_i lambda'_i P_i^(l/eps) * E[Psi^(l/eps)]

runs over the heard tiers of ``heard_tiers``: an unsectored tier is heard at
its density and power, a sectored one at its sector gain by the theta/(2 pi)
share of its stations that face the receiver.  The operations below
implement that reduction chain.  All values are immutable and every
operation is a pure function, so everything here is safe to share across
threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

__all__ = [
    "Dimension",
    "Sector",
    "Tier",
    "LogNormalFading",
    "MomentFading",
    "Fading",
    "NetworkSpec",
    "CanonicalSystem",
    "SpecError",
    "DegenerateNetworkError",
    "Reduction",
    "heard_tiers",
    "reduce_network",
    "canonicalize",
    "spec_from_json",
    "load_spec",
    "sigma_db_to_natural",
]

_TWO_PI = 2.0 * math.pi
_B_BY_DIM = {1: 2.0, 2: _TWO_PI, 3: 4.0 * math.pi}

# Log-normal fading is parameterized by the standard deviation of the natural
# log; field measurements quote dB, so sigma_natural = sigma_dB * ln(10)/10.
_DB_TO_NATURAL = math.log(10.0) / 10.0


def sigma_db_to_natural(sigma_db: float) -> float:
    """Convert a dB shadow-fading standard deviation to natural-log units."""
    return sigma_db * _DB_TO_NATURAL


class SpecError(ValueError):
    """A network description failed validation; the message names the field."""


class DegenerateNetworkError(ValueError):
    """The effective density is 0 (no transmit power) or outside the float range."""


@dataclass(frozen=True)
class Dimension:
    """Ambient dimension l of the deployment, with its surface constant.

    b = 2, 2*pi, 4*pi for l = 1, 2, 3: the measure of the unit sphere scaled
    so that a ball of radius r has volume b * r^l / l.
    """

    l: int

    def __post_init__(self):
        if self.l not in (1, 2, 3):
            raise SpecError(f"dimension must be 1, 2 or 3, got {self.l}")

    @property
    def b(self) -> float:
        return _B_BY_DIM[self.l]

    def check_epsilon(self, epsilon: float):
        """Refuse a path-loss exponent that is not finite and > l."""
        if not (math.isfinite(epsilon) and epsilon > self.l):
            raise SpecError(f"path-loss exponent must be finite and exceed the "
                            f"dimension: epsilon={epsilon}, l={self.l}")


@dataclass(frozen=True)
class Sector:
    """Ideal sector antenna: gain over a beamwidth, zero outside it.  A facing
    station is heard at the gain in place of its tier's power (heard_tiers)."""

    gain: float
    beamwidth: float  # radians, in (0, 2*pi]

    def __post_init__(self):
        if not (self.gain > 0 and math.isfinite(self.gain)):
            raise SpecError(f"sector gain must be finite and > 0, got {self.gain}")
        if not (0.0 < self.beamwidth <= _TWO_PI):
            raise SpecError(
                f"sector beamwidth must lie in (0, 2*pi], got {self.beamwidth}"
            )

    @property
    def face_probability(self) -> float:
        """Probability the antenna faces the receiver: beamwidth / 2*pi."""
        return self.beamwidth / _TWO_PI


@dataclass(frozen=True)
class Tier:
    """One homogeneous layer: density, constant power, optional sectoring.  A
    sectored tier is heard at its sector gain, so its power is never read."""

    density: float
    power: float
    sector: Optional[Sector] = None

    def __post_init__(self):
        if not (self.density > 0 and math.isfinite(self.density)):
            raise SpecError(f"tier density must be finite and > 0, got {self.density}")
        if not (self.power >= 0 and math.isfinite(self.power)):
            raise SpecError(f"tier power must be finite and >= 0, got {self.power}")


@dataclass(frozen=True)
class LogNormalFading:
    """Psi = exp(sigma * Z), Z standard normal; sigma in natural-log units.

    E[Psi^a] = exp(a^2 sigma^2 / 2); at l = 2 this is the familiar effective
    density boost exp(2 sigma^2 / eps^2).  sigma = 0 is no fading.
    """

    sigma: float

    def __post_init__(self):
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise SpecError(f"fading sigma must be finite and >= 0, got {self.sigma}")

    def moment(self, a: float) -> float:
        try:
            return math.exp(0.5 * (a * self.sigma) ** 2)
        except OverflowError:  # the reduction and the sampler refuse it
            return math.inf


@dataclass(frozen=True)
class MomentFading:
    """Fading known only through the one moment the reduction needs.

    ``value`` is E[Psi^(l/eps)] itself, so this carries enough information
    for every analytic result but cannot be sampled.
    """

    value: float

    def __post_init__(self):
        if not (self.value > 0 and math.isfinite(self.value)):
            raise SpecError(f"fading moment must be finite and > 0, got {self.value}")

    def moment(self, a: float) -> float:
        return self.value


Fading = Union[LogNormalFading, MomentFading]


@dataclass(frozen=True)
class NetworkSpec:
    """Full description of a multi-tier network."""

    dim: Dimension
    epsilon: float
    tiers: Tuple[Tier, ...]
    fading: Fading = LogNormalFading(0.0)
    noise: float = 0.0

    def __post_init__(self):
        if not self.tiers:
            raise SpecError("at least one tier is required")
        if not isinstance(self.tiers, tuple):
            object.__setattr__(self, "tiers", tuple(self.tiers))
        self.dim.check_epsilon(self.epsilon)
        if not (self.noise >= 0 and math.isfinite(self.noise)):
            raise SpecError(f"noise must be finite and >= 0, got {self.noise}")

    @property
    def total_density(self) -> float:
        return sum(t.density for t in self.tiers)


@dataclass(frozen=True)
class CanonicalSystem:
    """Unit-density, unit-power, fading-free equivalent with noise N'.

    Two networks with the same (l, epsilon, N') share the full distribution
    of C/(I+N); with N' = 0 the C/I law depends on epsilon/l alone.
    """

    dim: Dimension
    epsilon: float
    nprime: float

    def __post_init__(self):
        self.dim.check_epsilon(self.epsilon)
        if not (self.nprime >= 0 and math.isfinite(self.nprime)):
            raise SpecError(f"nprime must be finite and >= 0, got {self.nprime}")

    @property
    def a(self) -> float:
        return self.dim.l / self.epsilon

    @property
    def ratio(self) -> float:
        return self.epsilon / self.dim.l


def heard_tiers(spec: NetworkSpec) -> List[Tuple[float, float]]:
    """(density, power) of each tier a receiver can hear.

    A sectored station faces the receiver with probability theta/(2*pi),
    independently per station, so a sectored tier is heard as its thinning
    to that share of its density, at the sector gain in place of the tier's
    power; the facing probability is planar geometry, applied verbatim in
    every dimension.  Tiers heard at zero power are left out.
    """
    heard = [(t.density, t.power) if t.sector is None
             else (t.density * t.sector.face_probability, t.sector.gain)
             for t in spec.tiers]
    return [(lam, p) for lam, p in heard if lam > 0.0 and p > 0.0]


@dataclass(frozen=True)
class Reduction:
    """The factors of lambda_eff and the canonical system they give."""

    power_moment: float  # sum_i lambda'_i P_i^(l/eps) / total density
    fading_moment: float  # E[Psi^(l/eps)]
    lambda_eff: float
    canon: CanonicalSystem


def reduce_network(spec: NetworkSpec) -> Reduction:
    """Reduce a full network to its canonical (l, epsilon, N') equivalent.

    N' = N * lambda_eff^(-eps/l) with
    lambda_eff = sum_i lambda'_i P_i^(l/eps) * E[Psi^(l/eps)] over the heard
    tiers; N' = 0 without noise.  A network with no heard tier, or a
    lambda_eff of 0 or inf, is rejected rather than mapped to N' = infinity.
    """
    a = spec.dim.l / spec.epsilon
    heard = heard_tiers(spec)
    if not heard:
        raise DegenerateNetworkError("no station can be heard: every tier has power 0")
    lam_unfaded = sum(lam * p**a for lam, p in heard)
    psi_moment = spec.fading.moment(a)
    lam_eff = lam_unfaded * psi_moment
    if not 0.0 < lam_eff < math.inf:
        raise DegenerateNetworkError(f"lambda_eff={lam_eff} is outside the float range")
    try:
        nprime = spec.noise and spec.noise * lam_eff ** (-spec.epsilon / spec.dim.l)
    except OverflowError:
        nprime = math.inf  # refused by CanonicalSystem, naming nprime
    canon = CanonicalSystem(dim=spec.dim, epsilon=spec.epsilon, nprime=nprime)
    return Reduction(lam_unfaded / spec.total_density, psi_moment, lam_eff, canon)


def canonicalize(spec: NetworkSpec) -> CanonicalSystem:
    """The canonical system of a network; see reduce_network."""
    return reduce_network(spec).canon


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise SpecError(f"{name} must be an object, got {value!r}")
    return value


def _number(obj: dict, key: str, where: str = "", default=None) -> float:
    """obj[key] as a float; a missing key without a default, or a value that
    is not a JSON number, raises SpecError naming the field."""
    value = obj.get(key, default)
    if value is None and key not in obj:
        raise SpecError(f"{where}{key} is required")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}{key} must be a number, got {value!r}")
    return float(value)


def _parse_fading(obj) -> Fading:
    kind = "none" if obj is None else _object(obj, "fading").get("type")
    if kind == "none":
        return LogNormalFading(0.0)
    if kind == "lognormal":
        return LogNormalFading(sigma_db_to_natural(_number(obj, "sigma_db", "fading.")))
    if kind == "moment":
        return MomentFading(_number(obj, "value", "fading."))
    raise SpecError(f"fading.type must be none, lognormal or moment, got {kind!r}")


def _parse_tier(obj, idx: int) -> Tier:
    where = f"tiers[{idx}]"
    obj = _object(obj, where)
    density = _number(obj, "density", f"{where}.")
    power = _number(obj, "power", f"{where}.")
    sector = None
    if obj.get("sector") is not None:
        s = _object(obj["sector"], f"{where}.sector")
        sector = Sector(
            gain=_number(s, "gain", f"{where}.sector."),
            beamwidth=math.radians(_number(s, "beamwidth_deg", f"{where}.sector.")),
        )
    try:
        return Tier(density=density, power=power, sector=sector)
    except SpecError as e:
        raise SpecError(f"{where}: {e}") from None


def spec_from_json(obj: dict) -> NetworkSpec:
    """Build a NetworkSpec from its JSON document form.

    Schema: {"dimension": 2, "epsilon": 4.0, "noise": 1e-9,
             "fading": {"type": "lognormal", "sigma_db": 8.0}
                       | {"type": "none"} | {"type": "moment", "value": 1.3},
             "tiers": [{"density": 1.0, "power": 10.0,
                        "sector": {"gain": 20.0, "beamwidth_deg": 120.0}}]}
    Powers and densities are linear scale, densities per unit l-volume.
    Every value must have its schema type, a number being a JSON number
    (not a string or boolean) and the dimension a whole one; anything else
    raises SpecError naming the field.
    """
    obj = _object(obj, "spec")
    l = _number(obj, "dimension")
    dim = Dimension(int(l) if l.is_integer() else l)
    epsilon = _number(obj, "epsilon")
    tiers_raw = obj.get("tiers")
    if not (isinstance(tiers_raw, list) and tiers_raw):
        raise SpecError("tiers must be a nonempty list")
    tiers = tuple(_parse_tier(t, i) for i, t in enumerate(tiers_raw))
    return NetworkSpec(
        dim=dim,
        epsilon=epsilon,
        tiers=tiers,
        fading=_parse_fading(obj.get("fading")),
        noise=_number(obj, "noise", default=0.0),
    )


def load_spec(path) -> NetworkSpec:
    """Read a NetworkSpec from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))
