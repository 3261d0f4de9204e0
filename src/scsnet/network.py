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

    lambda_eff = (sum_i lambda_i) * E[K^(l/eps)] * E[Psi^(l/eps)]

with K drawn from the tier-mixing (and sectoring) power mass function.  The
operations below implement that reduction chain.  All values are immutable
and every operation is a pure function, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

__all__ = [
    "Dimension",
    "Sector",
    "Tier",
    "NoFading",
    "LogNormalFading",
    "MomentFading",
    "Fading",
    "NetworkSpec",
    "PowerPmf",
    "CanonicalSystem",
    "SpecError",
    "DegenerateNetworkError",
    "superpose_tiers",
    "apply_sectoring",
    "power_moment",
    "fading_moment",
    "canonicalize",
    "noise_after_adding_tiers",
    "spec_from_json",
    "load_spec",
    "as_network_spec",
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
    """The reduced network has zero effective density (no transmit power)."""


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


@dataclass(frozen=True)
class Sector:
    """Ideal sector antenna: gain over a beamwidth, zero outside it."""

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
    """One homogeneous layer: density, constant power, optional sectoring."""

    density: float
    power: float
    sector: Optional[Sector] = None

    def __post_init__(self):
        if not (self.density > 0 and math.isfinite(self.density)):
            raise SpecError(f"tier density must be finite and > 0, got {self.density}")
        if not (self.power >= 0 and math.isfinite(self.power)):
            raise SpecError(f"tier power must be finite and >= 0, got {self.power}")


@dataclass(frozen=True)
class NoFading:
    """Unit shadow fading on every link."""

    def moment(self, a: float) -> float:
        return 1.0

    @property
    def mean(self) -> float:
        return 1.0


@dataclass(frozen=True)
class LogNormalFading:
    """Psi = exp(sigma * Z), Z standard normal; sigma in natural-log units.

    E[Psi^a] = exp(a^2 sigma^2 / 2); at l = 2 this is the familiar effective
    density boost exp(2 sigma^2 / eps^2).
    """

    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise SpecError(f"fading sigma must be >= 0, got {self.sigma}")

    def moment(self, a: float) -> float:
        return math.exp(0.5 * (a * self.sigma) ** 2)

    @property
    def mean(self) -> float:
        return math.exp(0.5 * self.sigma**2)


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


Fading = Union[NoFading, LogNormalFading, MomentFading]


@dataclass(frozen=True)
class PowerPmf:
    """Discrete distribution of per-station transmission powers.

    Duplicate powers are merged by summing probabilities (exact equality;
    powers are user inputs, not computed quantities), so atoms are distinct
    and there is at most one zero-power atom.
    """

    powers: Tuple[float, ...]
    probs: Tuple[float, ...]

    def __post_init__(self):
        if len(self.powers) != len(self.probs) or not self.powers:
            raise SpecError("power pmf needs matching, nonempty atom arrays")
        if any(k < 0 for k in self.powers):
            raise SpecError("powers must be >= 0")
        if any(p < 0 for p in self.probs):
            raise SpecError("probabilities must be >= 0")
        if len(set(self.powers)) != len(self.powers):
            raise SpecError("powers must be distinct after merging")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise SpecError(f"probabilities must sum to 1, got {sum(self.probs)}")

    @classmethod
    def from_atoms(cls, atoms) -> "PowerPmf":
        """Build from (power, prob) pairs, merging duplicate powers."""
        merged = {}
        for kappa, p in atoms:
            merged[kappa] = merged.get(kappa, 0.0) + p
        items = sorted(merged.items(), key=lambda kp: -kp[0])
        return cls(tuple(k for k, _ in items), tuple(p for _, p in items))

    @property
    def atoms(self):
        return list(zip(self.powers, self.probs))

    def moment(self, a: float) -> float:
        """E[K^a]; zero-power atoms contribute nothing."""
        return sum(p * k**a for k, p in zip(self.powers, self.probs) if k > 0)

    @property
    def mean(self) -> float:
        return sum(p * k for k, p in zip(self.powers, self.probs))


@dataclass(frozen=True)
class NetworkSpec:
    """Full description of a multi-tier network."""

    dim: Dimension
    epsilon: float
    tiers: Tuple[Tier, ...]
    fading: Fading = field(default_factory=NoFading)
    noise: float = 0.0

    def __post_init__(self):
        if not self.tiers:
            raise SpecError("at least one tier is required")
        if not isinstance(self.tiers, tuple):
            object.__setattr__(self, "tiers", tuple(self.tiers))
        if not math.isfinite(self.epsilon):
            raise SpecError(f"epsilon must be finite, got {self.epsilon}")
        if self.epsilon <= self.dim.l:
            raise SpecError(
                f"path-loss exponent must exceed the dimension: "
                f"epsilon={self.epsilon} <= l={self.dim.l}"
            )
        if not (self.noise >= 0 and math.isfinite(self.noise)):
            raise SpecError(f"noise must be finite and >= 0, got {self.noise}")

    @property
    def total_density(self) -> float:
        return sum(t.density for t in self.tiers)

    @property
    def a(self) -> float:
        """The exponent l/epsilon that every reduction moment uses."""
        return self.dim.l / self.epsilon


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
        if not math.isfinite(self.epsilon):
            raise SpecError(f"epsilon must be finite, got {self.epsilon}")
        if self.epsilon <= self.dim.l:
            raise SpecError(
                f"epsilon={self.epsilon} must exceed l={self.dim.l}"
            )
        if not (self.nprime >= 0 and math.isfinite(self.nprime)):
            raise SpecError(f"nprime must be finite and >= 0, got {self.nprime}")

    @property
    def a(self) -> float:
        return self.dim.l / self.epsilon

    @property
    def ratio(self) -> float:
        return self.epsilon / self.dim.l


def superpose_tiers(spec: NetworkSpec) -> Tuple[float, PowerPmf]:
    """Collapse the tier stack to one field with a random power mark.

    The superposition of independent Poisson fields is Poisson with the
    summed density, and a station belongs to tier i with probability
    lambda_i / sum_j lambda_j, which becomes the power mass function.
    """
    total = spec.total_density
    return total, PowerPmf.from_atoms(
        (t.power, t.density / total) for t in spec.tiers
    )


def apply_sectoring(pmf: PowerPmf, sectors: Sequence[Optional[Sector]]) -> PowerPmf:
    """Replace sectored atoms (kappa, p) by (gain, p*theta/2pi) plus zero mass.

    A sectored station is heard at its gain with probability theta/(2*pi)
    and not at all otherwise, so the missing mass moves to the zero-power
    atom.  ``sectors`` runs parallel to ``pmf.atoms``; None entries pass
    through unchanged.  The theta/(2*pi) facing probability is planar
    geometry; it is applied verbatim in every dimension.
    """
    if len(sectors) != len(pmf.powers):
        raise SpecError("sectors must align one-to-one with pmf atoms")
    atoms = []
    zero_mass = 0.0
    for (kappa, p), sec in zip(pmf.atoms, sectors):
        if sec is None:
            atoms.append((kappa, p))
        else:
            f = sec.face_probability
            atoms.append((sec.gain, p * f))
            zero_mass += p * (1.0 - f)
    if zero_mass > 0.0:
        atoms.append((0.0, zero_mass))
    return PowerPmf.from_atoms(atoms)


def power_moment(pmf: PowerPmf, a: float) -> float:
    """E[K^a] for 0 < a < 1; the factor that absorbs power disparity."""
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie in (0, 1), got {a}")
    return pmf.moment(a)


def fading_moment(fading: Fading, a: float) -> float:
    """E[Psi^a] for 0 < a < 1; the factor that absorbs shadow fading."""
    if not (0.0 < a < 1.0):
        raise ValueError(f"a must lie in (0, 1), got {a}")
    return fading.moment(a)


def _sectored_pmf(spec: NetworkSpec) -> PowerPmf:
    # Sectoring is applied per tier before merging so that equal-power tiers
    # with different antennas keep their own facing probabilities.
    total = spec.total_density
    atoms = []
    zero_mass = 0.0
    for t in spec.tiers:
        p = t.density / total
        if t.sector is None:
            atoms.append((t.power, p))
        else:
            f = t.sector.face_probability
            atoms.append((t.sector.gain, p * f))
            zero_mass += p * (1.0 - f)
    if zero_mass > 0.0:
        atoms.append((0.0, zero_mass))
    return PowerPmf.from_atoms(atoms)


def canonicalize(spec: NetworkSpec) -> CanonicalSystem:
    """Reduce a full network to its canonical (l, epsilon, N') equivalent.

    N' = N * lambda_eff^(-eps/l) with
    lambda_eff = total density * E[K^(l/eps)] * E[Psi^(l/eps)], powers taken
    after sectoring.  A network whose whole power mass sits at zero is
    rejected rather than mapped to N' = infinity.
    """
    a = spec.a
    pmf = _sectored_pmf(spec)
    k_moment = pmf.moment(a)
    if k_moment == 0.0:
        raise DegenerateNetworkError(
            "all transmission-power mass is at zero; the network is empty"
        )
    lam_eff = spec.total_density * k_moment * fading_moment(spec.fading, a)
    nprime = spec.noise * lam_eff ** (-spec.epsilon / spec.dim.l)
    return CanonicalSystem(dim=spec.dim, epsilon=spec.epsilon, nprime=nprime)


def noise_after_adding_tiers(
    base: Tier, added: Sequence[Tier], dim: Dimension, epsilon: float, noise: float
) -> Tuple[float, float]:
    """Normalized noise before (N1) and after (N2) overlaying extra tiers.

    N1 = N * lambda1^(-eps/l) / kappa1 for the base tier alone;
    N2 = N1 * (1 + sum_i (lambda_i/lambda1)(kappa_i/kappa1)^(l/eps))^(-eps/l).
    Any added tier with positive density and power strictly lowers the
    normalized noise, hence strictly improves C/(I+N).
    """
    if base.power <= 0:
        raise SpecError("base tier power must be > 0")
    if epsilon <= dim.l:
        raise SpecError(f"epsilon={epsilon} must exceed l={dim.l}")
    a = dim.l / epsilon
    n1 = noise * base.density ** (-epsilon / dim.l) / base.power
    s = sum(
        (t.density / base.density) * (t.power / base.power) ** a for t in added
    )
    n2 = n1 * (1.0 + s) ** (-epsilon / dim.l)
    return n1, n2


def as_network_spec(canon: CanonicalSystem) -> NetworkSpec:
    """Re-express a canonical system as the network it stands for."""
    return NetworkSpec(
        dim=canon.dim,
        epsilon=canon.epsilon,
        tiers=(Tier(density=1.0, power=1.0),),
        fading=NoFading(),
        noise=canon.nprime,
    )


# ---------------------------------------------------------------------------
# JSON ingestion
# ---------------------------------------------------------------------------


def _parse_fading(obj) -> Fading:
    if obj is None:
        return NoFading()
    kind = obj.get("type")
    if kind == "none":
        return NoFading()
    if kind == "lognormal":
        if "sigma_db" in obj and "sigma" in obj:
            raise SpecError("fading: give sigma_db or sigma, not both")
        if "sigma_db" in obj:
            return LogNormalFading(sigma_db_to_natural(float(obj["sigma_db"])))
        if "sigma" in obj:
            return LogNormalFading(float(obj["sigma"]))
        raise SpecError("fading: lognormal requires sigma_db (or sigma)")
    if kind == "moment":
        if "value" not in obj:
            raise SpecError("fading: moment requires value")
        return MomentFading(float(obj["value"]))
    raise SpecError(f"fading.type must be none, lognormal or moment, got {kind!r}")


def _parse_tier(obj, idx: int) -> Tier:
    try:
        density = float(obj["density"])
    except KeyError:
        raise SpecError(f"tiers[{idx}]: density is required") from None
    try:
        power = float(obj["power"])
    except KeyError:
        raise SpecError(f"tiers[{idx}]: power is required") from None
    sector = None
    if obj.get("sector") is not None:
        s = obj["sector"]
        if "gain" not in s or "beamwidth_deg" not in s:
            raise SpecError(f"tiers[{idx}].sector: gain and beamwidth_deg required")
        sector = Sector(
            gain=float(s["gain"]),
            beamwidth=math.radians(float(s["beamwidth_deg"])),
        )
    try:
        return Tier(density=density, power=power, sector=sector)
    except SpecError as e:
        raise SpecError(f"tiers[{idx}]: {e}") from None


def spec_from_json(obj: dict) -> NetworkSpec:
    """Build a NetworkSpec from its JSON document form.

    Schema: {"dimension": 2, "epsilon": 4.0, "noise": 1e-9,
             "fading": {"type": "lognormal", "sigma_db": 8.0}
                       | {"type": "none"} | {"type": "moment", "value": 1.3},
             "tiers": [{"density": 1.0, "power": 10.0,
                        "sector": {"gain": 20.0, "beamwidth_deg": 120.0}}]}
    Powers and densities are linear scale, densities per unit l-volume.
    """
    if "dimension" not in obj:
        raise SpecError("dimension is required")
    if "epsilon" not in obj:
        raise SpecError("epsilon is required")
    dim = Dimension(int(obj["dimension"]))
    tiers_raw = obj.get("tiers")
    if not tiers_raw:
        raise SpecError("tiers must be a nonempty list")
    tiers = tuple(_parse_tier(t, i) for i, t in enumerate(tiers_raw))
    return NetworkSpec(
        dim=dim,
        epsilon=float(obj["epsilon"]),
        tiers=tiers,
        fading=_parse_fading(obj.get("fading")),
        noise=float(obj.get("noise", 0.0)),
    )


def load_spec(path) -> NetworkSpec:
    """Read a NetworkSpec from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))
