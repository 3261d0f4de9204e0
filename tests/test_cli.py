import hashlib
import json
import math
from pathlib import Path

import pytest

from scsnet import LookupTable, canonicalize, default_r_max, load_spec, tail_cin
from scsnet.cli import main


@pytest.fixture
def spec_path(tmp_path):
    doc = {
        "dimension": 2, "epsilon": 4.0, "noise": 0.5,
        "fading": {"type": "none"},
        "tiers": [{"density": 2.0, "power": 4.0}],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestReduce:
    def test_known_reduction(self, capsys, spec_path):
        code, out, _ = run(capsys, "reduce", spec_path)
        assert code == 0
        got = json.loads(out)
        # lambda_eff = 2 * sqrt(4) = 4; N' = 0.5 / 4^2 = 0.03125
        assert got["lambda_eff"] == pytest.approx(4.0)
        assert got["nprime"] == pytest.approx(0.03125)

    def test_canonical_spec_echoes_noise(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "dimension": 2, "epsilon": 4.0, "noise": 0.37,
            "tiers": [{"density": 1.0, "power": 1.0}],
        }))
        code, out, _ = run(capsys, "reduce", path)
        assert json.loads(out)["nprime"] == pytest.approx(0.37)

    def test_readme_sectored_spec_reduces_over_heard_tiers(self, capsys, tmp_path):
        # the README spec: 1/3 of tier 1 heard at gain 20, tier 2 at 0.1; a = 1/2
        path = tmp_path / "readme.json"
        path.write_text(json.dumps({
            "dimension": 2, "epsilon": 4.0, "noise": 1.0e-2,
            "fading": {"type": "lognormal", "sigma_db": 8.0},
            "tiers": [
                {"density": 1.0, "power": 10.0,
                 "sector": {"gain": 20.0, "beamwidth_deg": 120.0}},
                {"density": 5.0, "power": 0.1},
            ],
        }))
        code, out, _ = run(capsys, "reduce", path)
        assert code == 0
        want = (1.0 / 3.0 * 20.0**0.5 + 5.0 * 0.1**0.5) / 6.0
        assert json.loads(out)["power_moment"] == pytest.approx(want, rel=1e-14)

    def test_two_tier_noise_ratio(self, capsys, tmp_path):
        # overlaying a second tier: N2/N1 = (1 + (l2/l1)(k2/k1)^(l/eps))^(-eps/l)
        base = {"dimension": 2, "epsilon": 4.0, "noise": 1.0,
                "tiers": [{"density": 1.0, "power": 1.0}]}
        both = dict(base, tiers=base["tiers"] + [{"density": 2.0, "power": 0.25}])
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        p1.write_text(json.dumps(base))
        p2.write_text(json.dumps(both))
        _, out1, _ = run(capsys, "reduce", p1)
        _, out2, _ = run(capsys, "reduce", p2)
        n1 = json.loads(out1)["nprime"]
        n2 = json.loads(out2)["nprime"]
        want = (1.0 + 2.0 * 0.25**0.5) ** -2.0
        assert n2 / n1 == pytest.approx(want, rel=1e-12)

    def test_invalid_epsilon_names_requirement(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "dimension": 2, "epsilon": 1.5,
            "tiers": [{"density": 1.0, "power": 1.0}],
        }))
        code, _, err = run(capsys, "reduce", path)
        assert code == 2
        assert "exceed" in err

    @pytest.mark.parametrize("doc", [
        [1], {"dimension": 2.5, "epsilon": 4.0, "tiers": [{"density": 1, "power": 1}]},
        {"dimension": 2, "epsilon": 4.0, "tiers": "ab"},
        {"dimension": 2, "epsilon": 4.0, "tiers": [{"density": "x", "power": 1}]},
    ])
    def test_malformed_spec_is_a_spec_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "reduce", path)
        assert code == 2 and out == ""
        assert err.startswith("invalid spec:")


    @pytest.mark.parametrize("command", ["reduce", "tail"])
    @pytest.mark.parametrize("flag", ["--sigma-db", "--noise-dbm", "--power-dbm"])
    def test_spec_fields_have_no_override_flags(self, capsys, spec_path, command, flag):
        # the spec file, whose digest the manifest records, is the whole network
        extra = [] if command == "reduce" else [
            "--metric", "ci", "--method", "exact", "--etas", "1"]
        with pytest.raises(SystemExit) as exc:
            main([command, str(spec_path), *extra, flag, "0"])
        assert exc.value.code == 2


class TestTail:
    def test_invalid_pair_lists_valid_ones(self, capsys, spec_path, tmp_path):
        code, _, err = run(capsys, "tail", spec_path, "--metric", "cin",
                           "--method", "fewbs", "--etas", "2",
                           "--out", tmp_path / "x.csv")
        assert code == 2
        assert "valid pairs" in err

    def test_lookup_is_not_a_tail_method(self, capsys, spec_path, tmp_path):
        # stored tables are read by `scs lookup`
        with pytest.raises(SystemExit) as exc:
            main(["tail", str(spec_path), "--metric", "cin", "--method", "lookup",
                  "--etas", "1", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unsorted_etas_write_nothing(self, capsys, spec_path, tmp_path):
        code, _, err = run(capsys, "tail", spec_path, "--metric", "ci",
                           "--method", "exact", "--etas", "1,0.5",
                           "--out", tmp_path / "x.csv")
        assert code == 2 and "sorted" in err
        assert list(tmp_path.iterdir()) == [spec_path]

    def test_exact_cin_writes_tail_cin(self, capsys, spec_path, tmp_path):
        out = tmp_path / "cin.csv"
        etas = [0.5, 1.0, 2.0]
        code, _, _ = run(capsys, "tail", spec_path, "--metric", "cin",
                         "--method", "exact", "--etas", "0.5,1,2", "--out", out)
        assert code == 0
        canon = canonicalize(load_spec(spec_path))
        want = [f"{e!r},{tail_cin(canon, e)!r},exact" for e in etas]
        assert out.read_text().splitlines() == ["eta,tail,method", *want]

    def test_exact_ci_invariant_to_density_and_power(self, capsys, tmp_path):
        vals = []
        for dens, pow_ in ((1.0, 1.0), (7.0, 0.2)):
            p = tmp_path / f"s{dens}.json"
            p.write_text(json.dumps({
                "dimension": 2, "epsilon": 4.0,
                "tiers": [{"density": dens, "power": pow_}],
            }))
            out = tmp_path / f"t{dens}.csv"
            run(capsys, "tail", p, "--metric", "ci", "--method", "exact",
                "--etas", "1", "--out", out)
            vals.append(float(out.read_text().splitlines()[1].split(",")[1]))
        assert vals[0] == vals[1]

    def test_mc_deterministic_bytes_and_manifest(self, capsys, spec_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, printed, _ = run(capsys, "tail", spec_path, "--metric", "cin",
                                   "--method", "mc", "--etas", "0.5,1", "--n", "5000",
                                   "--seed", "9", "--out", out)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["command"] == "tail"
        assert manifest["args"]["seed"] == 9
        assert "spec_sha256" in manifest["args"]
        r_max = default_r_max(load_spec(spec_path), seed=9)
        assert manifest["args"]["r_max"] == r_max
        # density 2 in the plane: 2 * pi r^2 stations expected per row
        stations = manifest["args"]["stations_per_row"]
        assert stations == pytest.approx(2.0 * math.pi * r_max**2, rel=1e-12)
        assert f"r_max={r_max:.6g}, stations_per_row={stations:.6g})" in printed

    def test_fewbs_method(self, capsys, spec_path, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run(capsys, "tail", spec_path, "--metric", "ci",
                         "--method", "fewbs", "--etas", "0.5,1,2", "--out", out)
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "eta,tail,method"
        assert all(r.endswith(",fewbs") for r in rows[1:])

    @pytest.mark.parametrize("doc", [
        # N' = 1e5: the noise phase needs more than the evaluation budget
        {"dimension": 2, "epsilon": 4.0, "noise": 1e5},
        # eps/l = 200: the noise phase scale is past the float range
        {"dimension": 1, "epsilon": 200.0, "noise": 1.0},
    ])
    def test_inversion_error_writes_nothing(self, capsys, tmp_path, doc):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**doc, "tiers": [{"density": 1.0, "power": 1.0}]}))
        code, _, err = run(capsys, "tail", path, "--metric", "cin", "--method",
                           "exact", "--etas", "0.5,2", "--out", tmp_path / "x.csv")
        assert code == 1
        assert err.startswith("error: char_scale")
        assert list(tmp_path.iterdir()) == [path]


class TestTableAndLookup:
    def test_round_trip_and_query(self, capsys, spec_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SCS_THREADS", "2")
        table = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", "--l", "2", "--epsilons", "4.0",
                         "--nprimes", "0.01,0.1", "--etas", "1.0",
                         "--out", table)
        assert code == 0
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "table"
        assert manifest["threads"] == 2
        # grid-point query: reduce(spec) gives N'=0.03125, inside the hull
        code, out, _ = run(capsys, "lookup", spec_path, "--table", table,
                           "--eta", "1.0", "--json")
        assert code == 0
        got = json.loads(out)
        assert got["nprime"] == pytest.approx(0.03125)
        assert 0.0 <= got["tail"] <= 1.0
        # exact grid point reads back the stored value
        canon_spec = tmp_path / "canon.json"
        canon_spec.write_text(json.dumps({
            "dimension": 2, "epsilon": 4.0, "noise": 0.1,
            "tiers": [{"density": 1.0, "power": 1.0}],
        }))
        code, out, _ = run(capsys, "lookup", canon_spec, "--table", table,
                           "--eta", "1.0")
        stored = [line for line in table.read_text().splitlines()[1:]
                  if line.startswith("2,4.0,0.1,1.0,")]
        assert float(out) == float(stored[0].split(",")[-1])

    def test_repeated_grid_value_writes_nothing(self, capsys, tmp_path):
        # a repeated eta would give a table that from_csv rejects
        table = tmp_path / "table.csv"
        code, _, err = run(capsys, "table", "--l", "2", "--epsilons", "4.0",
                           "--nprimes", "0.1", "--etas", "1,1", "--out", table)
        assert code == 1
        assert "etas" in err
        assert list(tmp_path.iterdir()) == []

    def test_failing_cell_writes_nothing(self, capsys, tmp_path):
        table = tmp_path / "table.csv"
        code, _, err = run(capsys, "table", "--l", "2", "--epsilons", "4.0",
                           "--nprimes", "1e5", "--etas", "0.5", "--out", table)
        assert code == 1
        assert err.startswith("error: char_scale")
        assert list(tmp_path.iterdir()) == []

    def test_bad_thread_count_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SCS_THREADS", "abc")
        table = tmp_path / "table.csv"
        code, _, err = run(capsys, "table", "--l", "2", "--epsilons", "4.0",
                           "--nprimes", "0.1", "--etas", "1.0", "--out", table)
        assert code == 1
        assert "SCS_THREADS" in err
        assert list(tmp_path.iterdir()) == []

    def test_nprime_range_table_reloads(self, capsys, tmp_path):
        # the log-spaced grid is numpy floats, which must be written as plain reprs
        table = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", "--l", "2", "--epsilons", "4.0",
                         "--nprime-range", "0.01", "1", "3", "--etas", "1.0",
                         "--out", table)
        assert code == 0
        back = LookupTable.from_csv(table)
        assert back.nprimes == pytest.approx((0.01, 0.1, 1.0), rel=1e-14)

    def test_out_of_hull_is_error(self, capsys, spec_path, tmp_path):
        table = tmp_path / "table.csv"
        run(capsys, "table", "--l", "2", "--epsilons", "4.0",
            "--nprimes", "0.0001,0.001", "--etas", "1.0", "--out", table)
        code, _, err = run(capsys, "lookup", spec_path, "--table", table,
                           "--eta", "1.0")
        assert code == 1
        assert "hull" in err


class TestFigures:
    def test_fig2_parallel_loglog_slopes(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "--which", "fig2",
                         "--out-dir", tmp_path)
        assert code == 0
        rows = (tmp_path / "fig2_fewbs_comparison.csv").read_text().splitlines()[1:]
        import numpy as np

        curves = {}
        for row in rows:
            eta, tail, method = row.split(",")
            curves.setdefault(method, []).append((float(eta), float(tail)))
        slopes = {}
        for method, pts in curves.items():
            pts = [(e, t) for e, t in pts if e >= 1.0]
            x = np.log([e for e, _ in pts])
            y = np.log([t for _, t in pts])
            slopes[method] = np.polyfit(x, y, 1)[0]
        # straight parallel lines above eta = 1: both slopes are -l/eps
        assert slopes["exact"] == pytest.approx(-0.5, abs=0.01)
        assert slopes["fewbs"] == pytest.approx(-0.5, abs=0.01)

    def test_fig3_monotone_in_noise(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "--which", "fig3",
                         "--out-dir", tmp_path)
        assert code == 0
        rows = (tmp_path / "fig3_noise_curves.csv").read_text().splitlines()[1:]
        by_eps = {}
        for row in rows:
            _, eps, npr, _, tail = row.split(",")
            by_eps.setdefault(float(eps), []).append((float(npr), float(tail)))
        for eps, pts in by_eps.items():
            tails = [t for _, t in sorted(pts)]
            assert tails == sorted(tails, reverse=True)

    def test_fig1_overlapping_density_curves(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figures", "--which", "fig1",
                         "--out-dir", tmp_path, "--n", "20000")
        assert code == 0
        rows = (tmp_path / "fig1_density_invariance.csv").read_text().splitlines()[1:]
        curves = {}
        for row in rows:
            l, eps, lam, eta, tail, hw, n, seed = row.split(",")
            curves.setdefault((int(l), float(eta)), []).append(
                (float(tail), float(hw))
            )
        for (l, eta), pts in curves.items():
            # all densities agree within joint 99% bands
            for (t1, h1) in pts:
                for (t2, h2) in pts:
                    assert abs(t1 - t2) <= math.hypot(h1, h2) + 1e-12


class TestManifestContract:
    """The args a manifest records rebuild a command that rewrites its data."""

    FLAGS = {"tail": ("metric", "method", "etas", "n", "seed"),
             "table": ("l", "epsilons", "nprimes", "etas"),
             "figures": ("which", "n", "seed")}

    def rerun(self, capsys, out, fresh):
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        args = manifest["args"]
        argv = [manifest["command"]]
        if "spec" in args:
            digest = hashlib.sha256(Path(args["spec"]).read_bytes()).hexdigest()
            assert digest == args["spec_sha256"]
            argv.append(args["spec"])
        for key in self.FLAGS[manifest["command"]]:
            if key in args:
                val = args[key]
                argv += [f"--{key}",
                         ",".join(map(repr, val)) if isinstance(val, list) else val]
        code, _, _ = run(capsys, *argv, *self.out_flags(argv[0], fresh, out.name))
        assert code == 0
        return fresh / out.name

    @staticmethod
    def out_flags(command, directory, name):
        return ["--out-dir", directory] if command == "figures" else [
            "--out", directory / name]

    @pytest.mark.parametrize("argv, name", [
        (["tail", "SPEC", "--metric", "cin", "--method", "exact",
          "--etas", "0.5,1,2"], "tail.csv"),
        (["tail", "SPEC", "--metric", "ci", "--method", "mc", "--etas", "0.5,1",
          "--n", "5000", "--seed", "9"], "tail.csv"),
        (["table", "--l", "2", "--epsilons", "4.0", "--nprime-range", "0.01", "1", "4",
          "--etas", "0.5,2"], "table.csv"),
        (["figures", "--which", "fig2"], "fig2_fewbs_comparison.csv"),
    ], ids=["tail_exact", "tail_mc", "table_nprime_range", "figures_fig2"])
    def test_recorded_args_reproduce_the_bytes(self, capsys, spec_path, tmp_path,
                                               argv, name):
        first, fresh = tmp_path / "first", tmp_path / "fresh"
        first.mkdir()
        fresh.mkdir()
        argv = [spec_path if a == "SPEC" else a for a in argv]
        code, _, _ = run(capsys, *argv, *self.out_flags(argv[0], first, name))
        assert code == 0
        again = self.rerun(capsys, first / name, fresh)
        assert again.read_bytes() == (first / name).read_bytes()
