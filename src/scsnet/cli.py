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
    Reduce the spec; print the tail read out of a stored table as JSON.
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
from .analytic import (LookupTable, _read_out, build_lookup_table, default_table_grids,
                       tail_ci, tail_ci2, tail_cin)
from .montecarlo import (BLOCK_SIZE, empirical_tail_ci, empirical_tail_cin,
                         sampler_threads, substream)
from .network import (Dimension, NetworkSpec, SpecError, Tier, canonicalize,
                      load_spec, reduce_network, spec_from_json)
from .numerics import InversionError


class UsageError(Exception):
    """Invalid flag combination; the message lists what would be valid."""


def _write_outputs(out_path, write, command, args_dict, started, **extra):
    """Write the data file by `write(out_path)`, then its manifest.  Every row
    and manifest field is computed by now, so a command that fails writes nothing."""
    write(out_path)
    manifest = {
        "command": command,
        "args": args_dict,
        "outputs": [str(out_path)],
        "tool_version": __version__,
        "wallclock_s": round(time.monotonic() - started, 3),
        **extra,
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_rows(path, header, rows):
    """Write a CSV header and rows; str of a float is its full-precision repr."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _parse_floats(text, name):
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"{name} must be comma-separated numbers, got {text!r}") from None


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


def cmd_tail(args) -> int:
    started = time.monotonic()
    data = args.spec.read_bytes()  # the manifest digests the bytes parsed
    spec = spec_from_json(json.loads(data.decode("utf-8")))
    etas = args.etas
    if sorted(etas) != etas:
        raise UsageError("--etas must be sorted ascending")
    if (args.metric, args.method) == ("cin", "fewbs"):
        raise UsageError("metric/method cin/fewbs is not supported; valid pairs: "
                         "ci/exact, ci/fewbs, ci/mc, cin/exact, cin/mc")
    record = {"spec": str(args.spec), "spec_sha256": hashlib.sha256(data).hexdigest(),
              "metric": args.metric, "method": args.method, "etas": etas}
    notes, extra = [], {}  # method-specific summary and manifest facts
    if args.method == "mc":
        fn = empirical_tail_ci if args.metric == "ci" else empirical_tail_cin
        emp = fn(spec, etas, args.n, args.seed)
        stats = {"rejections": emp.n_rejected, "r_max": emp.r_max,
                 "stations_per_row": emp.stations_per_row}
        record.update(n=args.n, seed=args.seed, **stats)
        extra = {"generator": type(substream(args.seed, 0).bit_generator).__name__,
                 "block_size": BLOCK_SIZE, "threads": sampler_threads()}
        notes = [f"n={args.n}"] + [f"{k}={v:.6g}" for k, v in stats.items()]
        write = emp.to_csv
    else:
        canon = canonicalize(spec)
        fn, system = ((tail_cin, canon) if args.metric == "cin" else
                      (tail_ci if args.method == "exact" else tail_ci2, canon.ratio))
        write = functools.partial(_write_rows, header="eta,tail,method", rows=[
            (eta, fn(system, eta), args.method) for eta in etas])
    _write_outputs(args.out, write, "tail", record, started, **extra)
    print(f"wrote {args.out} ({', '.join([f'{len(etas)} points'] + notes)})")
    return 0


def cmd_table(args) -> int:
    started = time.monotonic()
    # an absent flag is None and takes the default grid
    epsilons, nprimes, etas = (list(d) if g is None else g for g, d in zip(
        (args.epsilons, args.nprimes, args.etas), default_table_grids(args.l)))
    table = build_lookup_table(args.l, epsilons, nprimes, etas)
    _write_outputs(args.out, table.to_csv, "table", {
        "l": args.l, "epsilons": epsilons, "nprimes": nprimes, "etas": etas},
        started)
    print(f"wrote {args.out} ({len(epsilons)}x{len(nprimes)}x{len(etas)} cells)")
    return 0


def cmd_lookup(args) -> int:
    table, canon = LookupTable.from_csv(args.table), canonicalize(load_spec(args.spec))
    print(json.dumps({"eta": args.eta, "tail": _read_out(table, canon, args.eta),
                      "epsilon": canon.epsilon, "nprime": canon.nprime}, sort_keys=True))
    return 0


def cmd_figures(args) -> int:
    started = time.monotonic()
    record = {"which": args.which}  # n and seed only where something is drawn
    if args.which == "fig1":
        # density invariance: per dimension, the C/I tail curves for widely
        # different densities lie on top of each other
        name = "fig1_density_invariance.csv"
        etas = [float(e) for e in np.geomspace(0.1, 10.0, 13)]
        rows = []
        for l, eps in ((1, 2.0), (2, 4.0), (3, 6.0)):
            for lam in (0.1, 1.0, 10.0):
                spec = NetworkSpec(dim=Dimension(l), epsilon=eps,
                                   tiers=(Tier(density=lam, power=1.0),))
                emp = empirical_tail_ci(spec, etas, args.n, args.seed)
                rows += [(l, eps, lam, eta, t, hw, args.n, args.seed)
                         for eta, t, hw in zip(emp.etas, emp.tails, emp.halfwidths)]
        header = "l,epsilon,lambda,eta,tail,ci_halfwidth,n,seed"
        record.update(n=args.n, seed=args.seed)
        write = functools.partial(_write_rows, header=header, rows=rows)
    elif args.which == "fig2":
        # exact C/I versus the strongest-two closed form, planar case
        name = "fig2_fewbs_comparison.csv"
        etas = [float(e) for e in np.geomspace(0.01, 100.0, 25)]
        rows = ([(eta, tail_ci(2.0, eta), "exact") for eta in etas]
                + [(eta, tail_ci2(2.0, eta), "fewbs") for eta in etas])
        write = functools.partial(_write_rows, header="eta,tail,method", rows=rows)
    else:
        # fig3, noise lookup curves: P(C/(I+N') > 1) against N' for several epsilon
        name = "fig3_noise_curves.csv"
        nprimes = np.logspace(-4, 2, 13)
        write = build_lookup_table(2, (3.0, 4.0, 5.0), nprimes, (1.0,)).to_csv
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / name
    _write_outputs(out, write, "figures", record, started)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="scs", description="Signal-quality tails of Poisson multi-tier networks")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("reduce", help="print the canonical reduction of a spec")
    pr.add_argument("spec", type=Path)
    pr.set_defaults(fn=cmd_reduce)

    pt = sub.add_parser("tail", help="evaluate a tail curve to CSV")
    pt.add_argument("spec", type=Path)
    pt.add_argument("--metric", choices=("ci", "cin"), required=True)
    pt.add_argument("--method", choices=("exact", "fewbs", "mc"), required=True)
    pt.add_argument("--etas", required=True,
                    type=functools.partial(_parse_floats, name="--etas"),
                    help="comma-separated thresholds, ascending")
    pt.add_argument("--n", type=int, default=100_000,
                    help="realizations for --method mc")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--out", type=Path, default=Path("tail.csv"))
    pt.set_defaults(fn=cmd_tail)

    pb = sub.add_parser("table", help="tabulate C/(I+N') tails over a grid")
    pb.add_argument("--l", type=int, default=2, choices=(1, 2, 3))
    for flag, what in (("--epsilons", "path-loss exponents"), ("--nprimes", "N' grid"),
                       ("--etas", "thresholds")):
        pb.add_argument(flag, type=functools.partial(_parse_floats, name=flag),
                        help=f"comma-separated {what}; absent: the default grid")
    pb.add_argument("--out", type=Path, required=True)
    pb.set_defaults(fn=cmd_table)

    pl = sub.add_parser("lookup", help="query a stored table for a spec")
    pl.add_argument("spec", type=Path)
    pl.add_argument("--table", type=Path, required=True)
    pl.add_argument("--eta", type=float, required=True)
    pl.set_defaults(fn=cmd_lookup)

    pf = sub.add_parser("figures", help="regenerate plot-ready data sets")
    pf.add_argument("--which", choices=("fig1", "fig2", "fig3"), required=True)
    pf.add_argument("--out-dir", type=Path, default=Path("figures"))
    pf.add_argument("--n", type=int, default=20_000)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(fn=cmd_figures)
    return p


def main(argv=None) -> int:
    try:
        # a list flag's type raises UsageError, so parsing is inside the try
        args = build_parser().parse_args(argv)
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
