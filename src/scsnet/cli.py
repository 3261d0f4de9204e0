"""Batch front-end: reduce specs, evaluate tails, build and query tables.

Subcommands
-----------
scs reduce SPEC.json
    Print the canonical reduction (lambda_eff, moments, N') as JSON.
scs tail SPEC.json --metric {ci,cin} --method {exact,fewbs,mc} ...
    Evaluate a tail curve and write it as CSV.
scs table --l L --epsilons ... --nprimes ... --etas ... --out FILE
    Tabulate C/(I+N') tails over a grid.
scs lookup --table FILE SPEC.json --eta ETA
    Reduce the spec and read the tail out of a stored table.
scs figures --which {fig1,fig2,fig3} --out-dir DIR
    Regenerate the density-invariance, strongest-two comparison and
    noise-table data sets as plot-ready CSV files.

Every file-writing command also writes `<file>.manifest.json` recording the
command, the spec digest, the seed and grids, and the tool version, so any
output can be reproduced exactly.  Data files are byte-identical across
reruns with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import (
    LookupTable,
    build_lookup_table,
    default_table_grids,
    lookup,
    table_threads,
    tail_ci,
    tail_ci2,
    tail_cin,
)
from .montecarlo import empirical_tail_ci, empirical_tail_cin
from .network import (Dimension, NetworkSpec, SpecError, Tier, canonicalize,
                      load_spec, reduce_network)
from .numerics import InversionError


class UsageError(Exception):
    """Invalid flag combination; the message lists what would be valid."""


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path, command, args_dict, started, **extra):
    manifest = {
        "command": command,
        "args": args_dict,
        "outputs": [str(out_path)],
        "tool_version": __version__,
        "wallclock_s": round(time.monotonic() - started, 3),
        **extra,
    }
    path = Path(str(out_path) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _write_tails(path, rows):
    """Write `eta,tail,method` rows at full float precision."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("eta,tail,method\n")
        for eta, p, method in rows:
            fh.write(f"{eta!r},{p!r},{method}\n")


def _parse_floats(text):
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    if not vals:
        raise UsageError("expected a comma-separated list of numbers")
    return vals


def _spec_args(args):
    return {"spec": str(args.spec), "spec_sha256": _sha256(args.spec)}


def cmd_reduce(args) -> int:
    spec = load_spec(args.spec)
    red = reduce_network(spec)
    print(json.dumps({
        "l": spec.dim.l,
        "epsilon": spec.epsilon,
        "total_density": spec.total_density,
        "power_moment": red.power_moment,
        "fading_moment": red.fading_moment,
        "lambda_eff": red.lambda_eff,
        "nprime": red.canon.nprime,
    }, indent=2, sort_keys=True))
    return 0


_VALID_PAIRS = {
    ("ci", "exact"), ("ci", "fewbs"), ("ci", "mc"),
    ("cin", "exact"), ("cin", "mc"),
}


def cmd_tail(args) -> int:
    started = time.monotonic()
    spec = load_spec(args.spec)
    etas = _parse_floats(args.etas)
    if sorted(etas) != etas:
        raise UsageError("--etas must be sorted ascending")
    pair = (args.metric, args.method)
    if pair not in _VALID_PAIRS:
        valid = ", ".join(sorted(f"{m}/{k}" for m, k in _VALID_PAIRS))
        raise UsageError(
            f"metric/method {args.metric}/{args.method} is not supported; "
            f"valid pairs: {valid}"
        )
    canon = canonicalize(spec)
    record, notes = {}, []  # method-specific manifest args and summary
    if args.method == "mc":
        fn = empirical_tail_ci if args.metric == "ci" else empirical_tail_cin
        emp = fn(spec, etas, args.n, args.seed)
        stats = {"rejections": emp.n_rejected, "r_max": emp.r_max,
                 "stations_per_row": emp.stations_per_row}
        record = {"n": args.n, "seed": args.seed, **stats}
        notes = [f"n={args.n}"] + [f"{k}={v:.6g}" for k, v in stats.items()]
        write = emp.to_csv
    else:
        if args.method == "exact" and args.metric == "ci":
            tails = [tail_ci(canon.ratio, eta) for eta in etas]
        elif args.method == "exact":
            tails = [tail_cin(canon, eta) for eta in etas]
        else:
            tails = [tail_ci2(canon.ratio, eta) for eta in etas]
        write = functools.partial(_write_tails, rows=[
            (eta, p, args.method) for eta, p in zip(etas, tails)])
    out = Path(args.out)
    write(out)
    _write_manifest(out, "tail", {**_spec_args(args), "metric": args.metric,
                                  "method": args.method, "etas": etas, **record},
                    started)
    print(f"wrote {out} ({', '.join([f'{len(etas)} points'] + notes)})")
    return 0


def cmd_table(args) -> int:
    started = time.monotonic()
    d_eps, d_npr, d_eta = default_table_grids(args.l)
    epsilons = _parse_floats(args.epsilons) if args.epsilons else list(d_eps)
    etas = _parse_floats(args.etas) if args.etas else list(d_eta)
    if args.nprimes:
        nprimes = _parse_floats(args.nprimes)
    elif args.nprime_range:
        lo, hi, count = args.nprime_range
        nprimes = list(np.logspace(np.log10(lo), np.log10(hi), int(count)))
    else:
        nprimes = list(d_npr)
    table = build_lookup_table(args.l, epsilons, nprimes, etas)
    out = Path(args.out)
    table.to_csv(out)
    _write_manifest(out, "table", {"l": args.l, "epsilons": epsilons,
                                   "nprimes": nprimes, "etas": etas},
                    started, threads=table_threads())
    print(f"wrote {out} ({len(epsilons)}x{len(nprimes)}x{len(etas)} cells)")
    return 0


def cmd_lookup(args) -> int:
    table = LookupTable.from_csv(args.table)
    spec = load_spec(args.spec)
    value = lookup(table, spec, args.eta)
    if args.json:
        canon = canonicalize(spec)
        print(json.dumps({"eta": args.eta, "tail": value,
                          "epsilon": canon.epsilon, "nprime": canon.nprime},
                         sort_keys=True))
    else:
        print(repr(value))
    return 0


def cmd_figures(args) -> int:
    started = time.monotonic()
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.which == "fig1":
        # density invariance: per dimension, the C/I tail curves for widely
        # different densities lie on top of each other
        out = outdir / "fig1_density_invariance.csv"
        etas = [float(e) for e in np.geomspace(0.1, 10.0, 13)]
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("l,epsilon,lambda,eta,tail,ci_halfwidth,n,seed\n")
            for l, eps in ((1, 2.0), (2, 4.0), (3, 6.0)):
                for lam in (0.1, 1.0, 10.0):
                    spec = NetworkSpec(dim=Dimension(l), epsilon=eps,
                                       tiers=(Tier(density=lam, power=1.0),))
                    emp = empirical_tail_ci(spec, etas, args.n, args.seed)
                    for eta, t, hw in zip(emp.etas, emp.tails, emp.halfwidths):
                        fh.write(f"{l},{eps!r},{lam!r},{eta!r},{t!r},{hw!r},"
                                 f"{args.n},{args.seed}\n")
    elif args.which == "fig2":
        # exact C/I versus the strongest-two closed form, planar case
        out = outdir / "fig2_fewbs_comparison.csv"
        etas = [float(e) for e in np.geomspace(0.01, 100.0, 25)]
        _write_tails(out, [(eta, tail_ci(2.0, eta), "exact") for eta in etas]
                     + [(eta, tail_ci2(2.0, eta), "fewbs") for eta in etas])
    elif args.which == "fig3":
        # noise lookup curves: P(C/(I+N') > 1) against N' for several epsilon
        out = outdir / "fig3_noise_curves.csv"
        nprimes = np.logspace(-4, 2, 13)
        build_lookup_table(2, (3.0, 4.0, 5.0), nprimes, (1.0,)).to_csv(out)
    _write_manifest(out, "figures", {"which": args.which, "n": args.n,
                                     "seed": args.seed}, started)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scs",
        description="Signal-quality tails of Poisson multi-tier networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("reduce", help="print the canonical reduction of a spec")
    pr.add_argument("spec", type=Path)
    pr.set_defaults(fn=cmd_reduce)

    pt = sub.add_parser("tail", help="evaluate a tail curve to CSV")
    pt.add_argument("spec", type=Path)
    pt.add_argument("--metric", choices=("ci", "cin"), required=True)
    pt.add_argument("--method", choices=("exact", "fewbs", "mc"), required=True)
    pt.add_argument("--etas", required=True,
                    help="comma-separated thresholds, ascending")
    pt.add_argument("--n", type=int, default=100_000,
                    help="realizations for --method mc")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out", type=Path, default=Path("tail.csv"))
    pt.set_defaults(fn=cmd_tail)

    pb = sub.add_parser("table", help="tabulate C/(I+N') tails over a grid")
    pb.add_argument("--l", type=int, default=2, choices=(1, 2, 3))
    pb.add_argument("--epsilons", help="comma-separated path-loss exponents")
    pb.add_argument("--nprimes", help="comma-separated N' grid")
    pb.add_argument("--nprime-range", nargs=3, type=float,
                    metavar=("LO", "HI", "COUNT"),
                    help="log-spaced N' grid from LO to HI")
    pb.add_argument("--etas", help="comma-separated thresholds")
    pb.add_argument("--out", type=Path, required=True)
    pb.set_defaults(fn=cmd_table)

    pl = sub.add_parser("lookup", help="query a stored table for a spec")
    pl.add_argument("spec", type=Path)
    pl.add_argument("--table", type=Path, required=True)
    pl.add_argument("--eta", type=float, required=True)
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(fn=cmd_lookup)

    pf = sub.add_parser("figures", help="regenerate plot-ready data sets")
    pf.add_argument("--which", choices=("fig1", "fig2", "fig3"), required=True)
    pf.add_argument("--out-dir", type=Path, default=Path("figures"))
    pf.add_argument("--n", type=int, default=20_000)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(fn=cmd_figures)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except SpecError as e:
        print(f"invalid spec: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, InversionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
