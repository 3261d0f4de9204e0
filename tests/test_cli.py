import hashlib
import json
import math
from pathlib import Path

import pytest

from scsnet import (LookupTable, canonicalize, default_r_max, load_spec, lookup,
                    tail_cin)
from scsnet import analytic, cli, montecarlo
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

    def test_etas_without_a_number_is_a_usage_error(self, capsys, spec_path, tmp_path):
        code, _, err = run(capsys, "tail", spec_path, "--metric", "ci",
                           "--method", "exact", "--etas", ",",
                           "--out", tmp_path / "x.csv")
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("etas", ["0.5,,1", "0.5,1,"])
    def test_etas_with_an_empty_entry_is_a_usage_error(self, capsys, spec_path,
                                                       tmp_path, etas):
        out = tmp_path / "x.csv"
        code, _, err = run(capsys, "tail", spec_path, "--metric", "ci",
                           "--method", "exact", "--etas", etas, "--out", out)
        assert code == 2
        assert err.startswith(f"usage error: --etas must be comma-separated numbers, "
                              f"got '{etas}'")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "fewbs", "mc"])
    @pytest.mark.parametrize("metric", ["ci", "cin"])
    def test_every_pair_writes_its_method(self, capsys, spec_path, tmp_path,
                                          metric, method):
        out = tmp_path / "t.csv"
        code, _, err = run(capsys, "tail", spec_path, "--metric", metric,
                           "--method", method, "--etas", "0.5,2", "--n", "2000",
                           "--out", out)
        if (metric, method) == ("cin", "fewbs"):
            assert code == 2
            assert err == ("usage error: metric/method cin/fewbs is not supported;"
                           " valid pairs: ci/exact, ci/fewbs, ci/mc, cin/exact,"
                           " cin/mc\n")
            assert list(tmp_path.iterdir()) == [spec_path]
            return
        assert code == 0
        want = f"mc-{metric}" if method == "mc" else method
        rows = out.read_text().splitlines()[1:]
        assert [r.split(",")[-1] for r in rows] == [want, want]

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

    def test_digest_is_of_the_bytes_parsed(self, capsys, spec_path, tmp_path,
                                           monkeypatch):
        # the spec file changes between parsing and writing: the manifest
        # still pins the network the tail was computed for
        parsed = spec_path.read_bytes()

        def canonicalize_then_edit(spec):
            spec_path.write_text(json.dumps({"dimension": 1, "epsilon": 3.0,
                                             "tiers": [{"density": 1, "power": 1}]}))
            return canonicalize(spec)

        monkeypatch.setattr(cli, "canonicalize", canonicalize_then_edit)
        out = tmp_path / "t.csv"
        code, _, _ = run(capsys, "tail", spec_path, "--metric", "cin",
                         "--method", "exact", "--etas", "1", "--out", out)
        assert code == 0
        manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
        assert manifest["args"]["spec_sha256"] == hashlib.sha256(parsed).hexdigest()

    def test_mc_manifest_records_generator_and_block_size(self, capsys, spec_path,
                                                          tmp_path, monkeypatch):
        # top-level facts of the sampler, kept out of the replayable args
        facts = {"generator", "block_size", "threads"}
        for method in ("mc", "exact"):
            out = tmp_path / f"{method}.csv"
            code, _, _ = run(capsys, "tail", spec_path, "--metric", "ci", "--method",
                             method, "--etas", "1", "--n", "100", "--out", out)
            assert code == 0
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            assert not facts & set(manifest["args"])
            if method == "mc":
                assert ((manifest["generator"], manifest["block_size"], manifest["threads"])
                        == ("SFC64", 512, montecarlo.sampler_threads()))
            else:
                assert not facts & set(manifest)
        # the thread count is recorded and changes no byte of the data
        data = []
        for threads in (1, 3):
            for module in (montecarlo, cli):  # the sampler's name and cli's import
                monkeypatch.setattr(module, "sampler_threads", lambda t=threads: t)
            out = tmp_path / f"mc{threads}.csv"
            run(capsys, "tail", spec_path, "--metric", "cin", "--method", "mc",
                "--etas", "0.5,1,2", "--n", "2001", "--seed", "7", "--out", out)
            manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
            assert manifest["threads"] == threads
            data.append(out.read_bytes())
        assert data[0] == data[1]

    @pytest.mark.parametrize("sigma_db,argv", [
        (100.0, ["tail", "--metric", "cin", "--method", "mc", "--etas", "1",
                 "--n", "100"]),
        (1000.0, ["reduce"]),
    ])
    def test_fading_past_float_range_is_an_error(self, capsys, tmp_path, sigma_db,
                                                  argv):
        # E[Psi^2] and E[Psi^(1/2)] overflow: each raised OverflowError
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "dimension": 2, "epsilon": 4.0,
            "fading": {"type": "lognormal", "sigma_db": sigma_db},
            "tiers": [{"density": 1.0, "power": 1.0}],
        }))
        out = ["--out", tmp_path / "mc.csv"] if argv[0] == "tail" else []
        code, printed, err = run(capsys, argv[0], path, *argv[1:], *out)
        assert code == 1 and printed == ""
        assert err.startswith("error:") and "float range" in err
        assert list(tmp_path.iterdir()) == [path]

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
    def test_grid_with_an_empty_entry_names_its_flag(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        code, _, err = run(capsys, "table", "--epsilons", "4.0", "--nprimes", "0.1,,1",
                           "--etas", "1.0", "--out", out)
        assert code == 2
        assert err.startswith("usage error: --nprimes must be comma-separated numbers")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--epsilons", "--nprimes", "--etas"])
    def test_empty_grid_flag_is_a_usage_error(self, capsys, tmp_path, flag):
        # only an absent flag takes the default grid
        grids = {"--epsilons": "4.0", "--nprimes": "0.1", "--etas": "1.0", flag: ""}
        code, out, err = run(capsys, "table", *[x for kv in grids.items() for x in kv],
                             "--out", tmp_path / "table.csv")
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: {flag} must be comma-separated numbers")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("l", [0, 7])
    def test_lookup_on_a_table_of_no_dimension_is_an_error(self, capsys, spec_path,
                                                           tmp_path, l):
        table = tmp_path / "table.csv"
        table.write_text(f"l,epsilon,nprime,eta,tail\n{l},8.0,0.1,1.0,0.5\n")
        code, out, err = run(capsys, "lookup", spec_path, "--table", table,
                             "--eta", "1")
        assert code == 1 and out == ""
        assert err == f"error: lookup table dimension must be 1, 2 or 3, got {l}\n"

    def test_round_trip_and_query(self, capsys, spec_path, tmp_path):
        table = tmp_path / "table.csv"
        code, _, _ = run(capsys, "table", "--l", "2", "--epsilons", "4.0",
                         "--nprimes", "0.01,0.1", "--etas", "1.0",
                         "--out", table)
        assert code == 0
        manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
        assert manifest["command"] == "table"
        # the table runs in the calling thread, so its manifest has no threads
        assert set(manifest) == {"args", "command", "outputs", "tool_version", "wallclock_s"}
        # grid-point query: reduce(spec) gives N'=0.03125, inside the hull
        code, out, _ = run(capsys, "lookup", spec_path, "--table", table,
                           "--eta", "1.0")
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
        assert json.loads(out)["tail"] == float(stored[0].split(",")[-1])

    def test_lookup_prints_one_json_object(self, capsys, spec_path, tmp_path):
        table = tmp_path / "table.csv"
        run(capsys, "table", "--l", "2", "--epsilons", "4.0",
            "--nprimes", "0.01,0.1", "--etas", "1.0", "--out", table)
        code, out, _ = run(capsys, "lookup", spec_path, "--table", table, "--eta", "1")
        assert code == 0 and out.count("\n") == 1
        assert sorted(json.loads(out)) == ["epsilon", "eta", "nprime", "tail"]
        with pytest.raises(SystemExit) as exc:  # the one answer needs no flag
            main(["lookup", str(spec_path), "--table", str(table), "--eta", "1",
                  "--json"])
        assert exc.value.code == 2

    def test_lookup_reduces_its_spec_once(self, capsys, spec_path, tmp_path,
                                          monkeypatch):
        table = tmp_path / "table.csv"
        run(capsys, "table", "--l", "2", "--epsilons", "3.5,4.5",
            "--nprimes", "0.01,0.1", "--etas", "1.0", "--out", table)
        canon = canonicalize(load_spec(spec_path))
        expected = json.dumps({"eta": 1.0, "epsilon": canon.epsilon,
                               "nprime": canon.nprime,
                               "tail": lookup(LookupTable.from_csv(table),
                                              load_spec(spec_path), 1.0)},
                              sort_keys=True) + "\n"
        calls = []

        def counted(spec):
            calls.append(spec)
            return canonicalize(spec)

        for module in (cli, analytic):
            monkeypatch.setattr(module, "canonicalize", counted)
        code, out, _ = run(capsys, "lookup", spec_path, "--table", table, "--eta", "1")
        assert code == 0 and out == expected
        assert len(calls) == 1

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

    def test_stale_thread_variable_changes_no_byte(self, capsys, tmp_path, monkeypatch):
        # a leftover SCS_THREADS, once an error when malformed, is ignored
        args = ("table", "--l", "2", "--epsilons", "4.0", "--nprimes", "0.1",
                "--etas", "1.0", "--out")
        assert run(capsys, *args, tmp_path / "plain.csv")[0] == 0
        monkeypatch.setenv("SCS_THREADS", "abc")
        assert run(capsys, *args, tmp_path / "stale.csv")[0] == 0
        assert (tmp_path / "stale.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        manifest = json.loads((tmp_path / "stale.csv.manifest.json").read_text())
        assert "threads" not in manifest

    def test_nprime_range_is_not_an_option(self, capsys, tmp_path):
        # the default N' grid is the one log-spaced grid; others go in --nprimes
        with pytest.raises(SystemExit) as exc:
            main(["table", "--nprime-range", "1e-6", "1e2", "33",
                  "--out", str(tmp_path / "table.csv")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("which, name, extra, want", [
        ("fig1", "fig1_density_invariance.csv", ["--n", "500", "--seed", "3"],
         {"which": "fig1", "n": 500, "seed": 3}),
        ("fig2", "fig2_fewbs_comparison.csv", [], {"which": "fig2"}),
        ("fig3", "fig3_noise_curves.csv", [], {"which": "fig3"}),
    ], ids=["fig1", "fig2", "fig3"])
    def test_manifest_records_n_and_seed_only_where_drawn(self, capsys, tmp_path,
                                                          which, name, extra, want):
        code, _, _ = run(capsys, "figures", "--which", which, "--out-dir", tmp_path,
                         *extra)
        assert code == 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["args"] == want

    def test_failed_fig1_writes_nothing(self, capsys, tmp_path):
        # every row is computed before the data file is opened
        code, _, err = run(capsys, "figures", "--which", "fig1", "--n", "0",
                           "--out-dir", tmp_path / "figs")
        assert code == 1
        assert err == "error: n must be >= 1\n"
        assert list(tmp_path.iterdir()) == []


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
        # the default N' grid is recorded in the manifest and passed back as --nprimes
        (["table", "--l", "2", "--epsilons", "4.0", "--etas", "2"], "table.csv"),
        (["figures", "--which", "fig2"], "fig2_fewbs_comparison.csv"),
    ], ids=["tail_exact", "tail_mc", "table_default_nprimes", "figures_fig2"])
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
