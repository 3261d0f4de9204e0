"""The three benchmark workloads, their seeded inputs and their references.

Every workload only calls the package and reads what it returns or writes.
Each answer is checked against a reference from a route independent of the
one being timed:

* C/I, eta >= 1: the exact power law sinc(pi a) eta^-a, a = l/eps.
* C/(I+N'), eta >= 1: the Campbell-Mecke integral (Blaszczyszyn & Keeler,
  IEEE Trans. IT 2015), computed here with scipy quad.
* eta < 1: values stored in refs.json by make_refs.py (Gil-Pelaez inversion
  with mpmath's 1F1, or mpmath quadrature), with that route's error added
  to the tolerance.
* Monte Carlo estimates: within 4 standard errors of the exact value.
* lookups: bilinear interpolation of the stored table at the (eps, N') that
  this module's own reduction gives for the query spec.
"""

from __future__ import annotations

import bisect
import csv
import functools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import quad

import scsnet.analytic as analytic
import scsnet.cli as cli
from scsnet.network import Dimension, LogNormalFading, NetworkSpec, Sector, Tier

_B = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}  # ball volume b r^l / l

# ci_curves: eps/l x eta.  tail_ci(4, 0.1) is left out: it raises
# InversionError at the default tolerance (ROADMAP item 3), and a workload
# may hold no operation that fails.  Its reference stays in refs.json.
CI_RATIOS = (1.5, 2.0, 3.0, 4.0)
CI_ETAS = (0.1, 0.5, 1.0, 2.0, 10.0)
CI_EXCLUDED = {("exact", 4.0, 0.1)}
CI_TOL = 1e-6  # tail_ci's default absolute accuracy

# cin_table: the `scs table` grid, then seeded lookups inside its hull
TABLE_L = 2
TABLE_EPSILONS = (3.0, 4.0, 5.0)
TABLE_NPRIMES = (0.01, 10.0)
TABLE_ETAS = (0.25, 1.0, 4.0)
TABLE_TOL = 1e-5  # build_lookup_table's default absolute accuracy
N_LOOKUPS = 2000
LOOKUP_BATCH = 100

# mc_multitier: the README's two-tier network
MC_SPEC = {
    "dimension": 2, "epsilon": 4.0, "noise": 1e-2,
    "fading": {"type": "lognormal", "sigma_db": 8.0},
    "tiers": [
        {"density": 1.0, "power": 10.0,
         "sector": {"gain": 20.0, "beamwidth_deg": 120.0}},
        {"density": 5.0, "power": 0.1},
    ],
}
MC_ETAS = (0.5, 1.0, 2.0)
MC_N = 100_000
# A fixed number of `scs tail` passes, seeds 2*seed and 2*seed + 1: two
# passes average the seed's effect on r_max and span more of the host's
# speed swings than one 20 s pass does.
MC_PASSES = 2


def sinc_tail(a, eta):
    """P(C/I > eta) = sinc(pi a) eta^-a, exact for eta >= 1."""
    return math.sin(math.pi * a) / (math.pi * a) * eta ** (-a)


def campbell_mecke_tail(l, epsilon, nprime, eta):
    """(P(C/(I+N') > eta), quadrature error) for eta >= 1.

    P = eta^-a (b/l) E[(I+N')^-a] with I positive-stable,
    E[e^-sI] = exp(-(b/l) Gamma(1-a) s^a); substituting u = s^a gives
    P = eta^-a (b/l) / Gamma(1+a) int_0^inf exp(-k u - N' u^(1/a)) du.
    """
    a = l / epsilon
    bl = _B[l] / l
    k = bl * math.gamma(1.0 - a)
    val, err = quad(lambda u: math.exp(-k * u - nprime * u ** (1.0 / a)),
                    0.0, math.inf, epsabs=1e-14, epsrel=1e-12, limit=200)
    scale = eta ** (-a) * bl / math.gamma(1.0 + a)
    return scale * val, scale * err


def lambda_eff(tiers, epsilon, l, sigma):
    """Effective density sum_i lambda_i E[K_i^a] E[Psi^a], a = l/eps.

    A sectored tier transmits at its sector gain towards the receiver with
    probability beamwidth / 2 pi, and not at all otherwise.
    """
    a = l / epsilon
    k_moment = 0.0
    for t in tiers:
        if t.get("sector"):
            s = t["sector"]
            k_moment += t["density"] * s["gain"] ** a * s["beamwidth_deg"] / 360.0
        else:
            k_moment += t["density"] * t["power"] ** a
    return k_moment * math.exp(0.5 * (a * sigma) ** 2)


def _sigma_natural(sigma_db):
    return sigma_db * math.log(10.0) / 10.0


@functools.cache
def _stored_refs():
    return json.loads((Path(__file__).resolve().parent / "refs.json").read_text())


def _ref(section, **key):
    for r in _stored_refs()[section]:
        if all(r[k] == v for k, v in key.items()):
            return r["value"], r["err"]
    raise KeyError(f"no stored reference {section} {key}")


@dataclass
class Outcome:
    """What one run did: operation counts, timings and failures."""

    attempted: int = 0
    failed: int = 0
    points: int = 0  # tail points answered by the workload's computing route
    points_s: float = 0.0  # wall time spent answering them
    extra: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)


def _timed_main(argv, tracer):
    """Run `scs` in-process; (exit code or exception, seconds)."""
    t0 = time.perf_counter()
    with tracer.span("cli.main"):
        try:
            rc = cli.main(argv)
        except Exception as e:  # a traceback exit of scs counts as a failure
            rc = e
    return rc, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# ci_curves
# ---------------------------------------------------------------------------


def ci_inputs(seed, workdir):
    ops = []
    for ratio in CI_RATIOS:
        for eta in CI_ETAS:
            for kind in ("exact", "two", "closed"):
                if kind == "closed" and eta < 1.0:
                    continue
                if (kind, ratio, eta) not in CI_EXCLUDED:
                    ops.append((kind, ratio, eta))
    return ops


def ci_reference(kind, ratio, eta):
    a = 1.0 / ratio
    if kind == "two":
        v, err = _ref("ci2", ratio=ratio, eta=eta)
        return v, 1e-9 + err  # g_integral's absolute accuracy is ~1e-10
    if eta >= 1.0:
        return sinc_tail(a, eta), CI_TOL
    v, err = _ref("ci", ratio=ratio, eta=eta)
    return v, CI_TOL + err


def run_ci(ops, tracer):
    fns = {"exact": analytic.tail_ci, "two": analytic.tail_ci2,
           "closed": analytic.tail_ci_closed}
    out = Outcome()
    answers = []
    t_start = time.perf_counter()
    for kind, ratio, eta in ops:
        try:
            answers.append(fns[kind](ratio, eta))
        except Exception as e:
            answers.append(e)
    out.points_s = time.perf_counter() - t_start
    out.points = out.attempted = len(ops)
    for (kind, ratio, eta), got in zip(ops, answers):
        ref, tol = ci_reference(kind, ratio, eta)
        if isinstance(got, Exception) or not abs(got - ref) <= tol:
            out.fail(f"{kind}({ratio}, {eta}) = {got!r}, reference {ref!r} +- {tol:.1e}")
    return out


# ---------------------------------------------------------------------------
# cin_table
# ---------------------------------------------------------------------------


def _query(rng):
    """A two-tier spec whose reduction lands inside the table hull."""
    epsilon = float(rng.uniform(TABLE_EPSILONS[0], TABLE_EPSILONS[-1]))
    sigma_db = float(rng.uniform(0.0, 12.0))
    tiers = [{"density": 1.0, "power": 10.0,
              "sector": {"gain": 20.0, "beamwidth_deg": 120.0}},
             {"density": float(10.0 ** rng.uniform(-0.5, 1.5)), "power": 0.1}]
    lo, hi = math.log(TABLE_NPRIMES[0] * 1.01), math.log(TABLE_NPRIMES[-1] / 1.01)
    nprime = math.exp(rng.uniform(lo, hi))
    sigma = _sigma_natural(sigma_db)
    noise = nprime * lambda_eff(tiers, epsilon, TABLE_L, sigma) ** (epsilon / TABLE_L)
    spec = NetworkSpec(
        dim=Dimension(TABLE_L), epsilon=epsilon,
        tiers=tuple(Tier(t["density"], t["power"],
                         Sector(t["sector"]["gain"],
                                math.radians(t["sector"]["beamwidth_deg"]))
                         if t.get("sector") else None) for t in tiers),
        fading=LogNormalFading(sigma), noise=noise,
    )
    eta = float(TABLE_ETAS[int(rng.integers(len(TABLE_ETAS)))])
    return spec, eta, epsilon, nprime


def cin_inputs(seed, workdir):
    rng = np.random.default_rng(seed)
    out = Path(workdir) / "table.csv"
    argv = ["table", "--l", str(TABLE_L),
            "--epsilons", ",".join(map(repr, TABLE_EPSILONS)),
            "--nprimes", ",".join(map(repr, TABLE_NPRIMES)),
            "--etas", ",".join(map(repr, TABLE_ETAS)), "--out", str(out)]
    return argv, out, [_query(rng) for _ in range(N_LOOKUPS)]


def cin_cell_reference(epsilon, nprime, eta):
    if eta >= 1.0:
        v, err = campbell_mecke_tail(TABLE_L, epsilon, nprime, eta)
    else:
        v, err = _ref("cin", l=TABLE_L, epsilon=epsilon, nprime=nprime, eta=eta)
    return v, TABLE_TOL + err


def _interpolate(table, epsilon, nprime, eta):
    """Bilinear in (eps, log N') at a grid eta, from the table's own values."""
    def bracket(grid, x, f):
        j = min(max(bisect.bisect_right(grid, x) - 1, 0), len(grid) - 2)
        return j, (f(x) - f(grid[j])) / (f(grid[j + 1]) - f(grid[j]))
    i, wi = bracket(table.epsilons, epsilon, float)
    j, wj = bracket(table.nprimes, nprime, math.log)
    v = table.values[:, :, table.etas.index(eta)]
    return ((1 - wi) * ((1 - wj) * v[i, j] + wj * v[i, j + 1])
            + wi * ((1 - wj) * v[i + 1, j] + wj * v[i + 1, j + 1]))


def run_cin(inputs, tracer):
    argv, csv_path, queries = inputs
    out = Outcome()
    n_cells = len(TABLE_EPSILONS) * len(TABLE_NPRIMES) * len(TABLE_ETAS)
    rc, build_s = _timed_main(argv, tracer)
    out.points, out.points_s = n_cells, build_s
    out.attempted += n_cells
    if rc != 0:  # every cell of the command is lost
        out.failed += n_cells
        out.problems.append(f"scs table failed: {rc!r}")
        return out
    with tracer.span("analytic.LookupTable.from_csv"):
        table = analytic.LookupTable.from_csv(csv_path)
    for i, eps in enumerate(table.epsilons):
        for j, npr in enumerate(table.nprimes):
            for k, eta in enumerate(table.etas):
                ref, tol = cin_cell_reference(eps, npr, eta)
                got = table.values[i, j, k]
                if not abs(got - ref) <= tol:
                    out.fail(f"cell ({eps}, {npr}, {eta}) = {got!r}, "
                             f"reference {ref!r} +- {tol:.1e}")
    answers, rates = [], []
    for lo in range(0, len(queries), LOOKUP_BATCH):
        batch = queries[lo:lo + LOOKUP_BATCH]
        t0 = time.perf_counter()
        for spec, eta, _, _ in batch:
            try:
                answers.append(analytic.lookup(table, spec, eta))
            except Exception as e:
                answers.append(e)
        rates.append(len(batch) / (time.perf_counter() - t0))
    out.attempted += 1  # all lookups are one operation, so they weigh as a cell
    out.extra["lookups_per_s"] = float(np.median(rates))
    wrong = []
    for (spec, eta, eps, npr), got in zip(queries, answers):
        ref = _interpolate(table, eps, npr, eta)
        if isinstance(got, Exception) or not abs(got - ref) <= 1e-9:
            wrong.append(f"lookup(eps={eps}, N'={npr}, eta={eta}) = {got!r}, "
                         f"reference {ref!r}")
    if wrong:
        out.fail(f"{len(wrong)} of {len(queries)} lookups wrong, first {wrong[0]}")
    return out


# ---------------------------------------------------------------------------
# mc_multitier
# ---------------------------------------------------------------------------


def mc_inputs(seed, workdir):
    """One `scs tail` argv and output path per pass, each pass its own seed."""
    spec_path = Path(workdir) / "spec.json"
    spec_path.write_text(json.dumps(MC_SPEC), encoding="utf-8")
    passes = []
    for k in range(MC_PASSES):
        out = Path(workdir) / f"mc{k}.csv"
        passes.append((["tail", str(spec_path), "--metric", "cin", "--method", "mc",
                        "--etas", ",".join(map(repr, MC_ETAS)), "--n", str(MC_N),
                        "--seed", str(MC_PASSES * seed + k), "--out", str(out)], out))
    return passes


def mc_exact(eta):
    """(exact P(C/(I+N) > eta), its error) for the mc_multitier spec."""
    if eta < 1.0:
        return _ref("mc", eta=eta)
    l, eps = MC_SPEC["dimension"], MC_SPEC["epsilon"]
    sigma = _sigma_natural(MC_SPEC["fading"]["sigma_db"])
    nprime = MC_SPEC["noise"] * lambda_eff(MC_SPEC["tiers"], eps, l, sigma) ** (-eps / l)
    return campbell_mecke_tail(l, eps, nprime, eta)


def run_mc(passes, tracer):
    out = Outcome()
    for argv, csv_path in passes:
        out.attempted += len(MC_ETAS)
        rc, wall = _timed_main(argv, tracer)
        out.points += len(MC_ETAS)
        out.points_s += wall
        if rc != 0:  # every point of the command is lost
            out.failed += len(MC_ETAS)
            out.problems.append(f"scs tail failed: {rc!r}")
            continue
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(MC_ETAS):
            out.failed += len(MC_ETAS)
            out.problems.append(f"scs tail wrote {len(rows)} rows")
            continue
        for eta, row in zip(MC_ETAS, rows):
            p, err = mc_exact(eta)
            tol = 4.0 * math.sqrt(p * (1.0 - p) / MC_N) + err
            got = float(row["tail"])
            if float(row["eta"]) != eta or not abs(got - p) <= tol:
                out.fail(f"mc eta={row['eta']}: {got!r}, exact {p!r} +- {tol:.1e}")
    out.extra["realizations_per_s"] = MC_N * len(passes) / out.points_s
    return out


WORKLOADS = {
    "ci_curves": (ci_inputs, run_ci),
    "cin_table": (cin_inputs, run_cin),
    "mc_multitier": (mc_inputs, run_mc),
}
