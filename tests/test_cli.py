import json
import math
import os

import pytest

from gausskey import RatePair, contains, kkt, load_model, solver, sweep
from gausskey.cli import RunConfig, _config_from_args, build_parser, main
from gausskey.errors import MaxIterationsExceeded
from gausskey.rates import PointMeta, RegionBoundary

from conftest import ill_conditioned_aligned, rng_for


@pytest.fixture(scope="module")
def model_files(tmp_path_factory, degraded_demo):
    root = tmp_path_factory.mktemp("models")
    general = root / "general.json"
    general.write_text(json.dumps({
        "sigma_x": [[2.0, 0.0], [0.0, 2.0]],
        "b": [[1.0, 0.5]],
        "e": [[0.7, 0.35]],
    }))
    aligned = root / "aligned.json"
    aligned.write_text(json.dumps({
        "sigma_x": [[2.0]], "sigma_wy": [[1.0]], "sigma_wz": [[2.0]],
    }))
    # B of full column rank reduces to the aligned form; a wide B does not
    tall = root / "tall.json"
    tall.write_text(json.dumps({
        "sigma_x": [[2.0, 0.0], [0.0, 2.0]],
        "b": [[1.0, 0.5], [0.3, 1.0], [0.2, 0.1]],
        "e": [[0.7, 0.35], [0.1, 0.6]],
    }))
    wide = root / "wide.json"
    wide.write_text(json.dumps({
        "sigma_x": [[2.0, 0.0], [0.0, 2.0]],
        "b": [[1.0, 0.5]],
        "e": [[0.7, 0.35], [0.1, 0.6]],
    }))
    bad = root / "bad.json"
    bad.write_text("{not json")
    invalid = root / "invalid.json"
    invalid.write_text(json.dumps({
        "sigma_x": [[0.0, 0.0], [0.0, 0.0]],
        "b": [[1.0, 0.5]],
        "e": [[0.7, 0.35]],
    }))
    return {"general": str(general), "aligned": str(aligned), "tall": str(tall),
            "wide": str(wide), "bad": str(bad), "invalid": str(invalid), "root": root}


def test_validate_ok(model_files, capsys):
    assert main(["validate", model_files["general"]]) == 0
    out = capsys.readouterr().out
    assert "valid general model" in out
    assert "mx=2 my=1 mz=1" in out


def test_validate_malformed_json_exits_2(model_files, capsys):
    assert main(["validate", model_files["bad"]]) == 2


def test_validate_invalid_model_exits_2(model_files):
    assert main(["validate", model_files["invalid"]]) == 2


def test_missing_file_exits_2(model_files):
    assert main(["validate", str(model_files["root"] / "nope.json")]) == 2


@pytest.mark.parametrize("command", ["validate", "region"])
def test_non_finite_model_exits_2(tmp_path, command):
    # JSON admits NaN; this model used to validate, and its region wrote
    # rk = 0 at every rate with s = t = NaN in the sidecar
    path = tmp_path / "nan.json"
    path.write_text('{"sigma_x": [[2.0, 0.0], [0.0, 2.0]], "b": [[1.0, NaN]], '
                    '"e": [[0.7, 0.35]]}')
    out_csv = tmp_path / "region.csv"
    argv = [command, str(path)] + (["-o", str(out_csv)] if command == "region" else [])
    assert main(argv) == 2
    assert not out_csv.exists()


def test_limit_prints_both_units(model_files, capsys):
    assert main(["limit", model_files["general"]]) == 0
    out = capsys.readouterr().out
    nats = 0.5 * math.log(3.5 / 2.225)
    assert f"{nats:.6f} nats" in out
    assert f"{nats / math.log(2.0):.6f} bits" in out


def test_region_csv_and_sidecar(model_files, capsys):
    out_csv = str(model_files["root"] / "region.csv")
    code = main(["region", model_files["general"], "-o", out_csv,
                 "--rp-max", "5", "--points", "12", "--resolution", "50"])
    assert code == 0
    with open(out_csv) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "rp,rk"
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 12
    rks = [rk for _, rk in rows]
    assert all(b >= a for a, b in zip(rks, rks[1:]))
    # final point approaches the limit from below
    limit = 0.5 * math.log(3.5 / 2.225)
    assert rows[-1][1] <= limit + 1e-9
    assert rows[-1][1] > limit - 0.02

    sidecar = os.path.splitext(out_csv)[0] + ".meta.json"
    with open(sidecar) as fh:
        meta = json.load(fh)
    assert meta["units"] == "nats"
    assert meta["asymptotic_limit_nats"] == pytest.approx(limit, abs=1e-9)
    assert len(meta["points"]) == 12
    assert {"rp", "rk", "s", "t", "kkt_residual"} <= set(meta["points"][0])


def test_region_sidecar_holds_each_aligned_solves_stats(model_files, tmp_path):
    # an aligned point's sidecar entry holds its solve's SolveReport.stats
    # (the same counts a direct solve at its rate gives; CPU seconds vary),
    # and a sweep point's has no stats key, so its bytes are as before
    cpu = ("commuting_part_cpu_s", "path_cpu_s", "ascent_cpu_s")
    sidecars = {}
    for kind in ("aligned", "general"):
        out_csv = str(tmp_path / f"{kind}.csv")
        assert main(["region", model_files[kind], "-o", out_csv, "--rp-max", "2",
                     "--points", "4", "--resolution", "40"]) == 0
        with open(os.path.splitext(out_csv)[0] + ".meta.json") as fh:
            sidecars[kind] = json.load(fh)["points"]
    assert not any("stats" in p for p in sidecars["general"])
    m = load_model(model_files["aligned"])
    routes = []
    for p in sidecars["aligned"]:
        want = solver.solve_at_rate(m, p["rp"]).stats
        assert set(p["stats"]) == set(want)
        assert {k: v for k, v in p["stats"].items() if k not in cpu} == {
            k: v for k, v in want.items() if k not in cpu}
        routes.append(p["stats"]["route"])
    assert routes[0] == "corner" and "commuting part" in routes


def test_region_outputs_reproducible(model_files):
    c1 = str(model_files["root"] / "r1.csv")
    c2 = str(model_files["root"] / "r2.csv")
    args = ["--rp-max", "2", "--points", "5", "--resolution", "40"]
    assert main(["region", model_files["general"], "-o", c1] + args) == 0
    assert main(["region", model_files["general"], "-o", c2] + args) == 0
    assert open(c1, "rb").read() == open(c2, "rb").read()
    m1 = os.path.splitext(c1)[0] + ".meta.json"
    m2 = os.path.splitext(c2)[0] + ".meta.json"
    assert open(m1, "rb").read() == open(m2, "rb").read()


def test_region_bits_units(model_files):
    out_nats = str(model_files["root"] / "nats.csv")
    out_bits = str(model_files["root"] / "bits.csv")
    args = ["--rp-max", "1", "--points", "3", "--resolution", "40"]
    assert main(["region", model_files["general"], "-o", out_nats] + args) == 0
    assert main(["region", model_files["general"], "-o", out_bits,
                 "--units", "bits"] + args) == 0
    n_rows = [ln.split(",") for ln in open(out_nats).read().splitlines()[1:]]
    b_rows = [ln.split(",") for ln in open(out_bits).read().splitlines()[1:]]
    for (rn, kn), (rb, kb) in zip(n_rows, b_rows):
        assert float(rb) == pytest.approx(float(rn) / math.log(2.0), rel=1e-12)
        assert float(kb) == pytest.approx(float(kn) / math.log(2.0), rel=1e-12)


def test_region_rows_are_members(model_files, degraded_demo):
    # every CSV row reparses into a pair the region contains at 1e-6
    out_csv = str(model_files["root"] / "member.csv")
    sidecar = os.path.splitext(out_csv)[0] + ".meta.json"
    assert main(["region", model_files["general"], "-o", out_csv,
                 "--rp-max", "3", "--points", "8", "--resolution", "50"]) == 0
    rows = [tuple(map(float, ln.split(",")))
            for ln in open(out_csv).read().splitlines()[1:]]
    meta = json.load(open(sidecar))
    boundary = RegionBoundary(
        points=tuple(RatePair(p["rp"], p["rk"]) for p in meta["points"]),
        model_digest=meta["model_digest"],
        solver_meta=tuple(PointMeta(p["s"], p["t"], p["kkt_residual"])
                          for p in meta["points"]),
    )
    model = load_model(model_files["general"])
    for rp, rk in rows:
        assert contains(model, RatePair(rp, rk), 1e-6, boundary=boundary)


def test_kkt_check_emits_certificate(model_files, capsys):
    cert_path = str(model_files["root"] / "cert.json")
    for model in ("aligned", "tall"):
        code = main(["kkt-check", model_files[model], "--rp", "0.5",
                     "-o", cert_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "certificate passed" in out
        cert = kkt.certificate_from_dict(json.load(open(cert_path)))
        assert cert.max_residual < 1e-6
        assert set(cert.residuals) == set(kkt.RESIDUAL_KEYS)


def test_region_off_the_sweep_needs_full_column_rank(model_files, capsys, tmp_path):
    out_csv = tmp_path / "tall.csv"
    assert main(["region", model_files["tall"], "-o", str(out_csv), "--rp-max", "3",
                 "--points", "4"]) == 0
    rks = [float(ln.split(",")[1]) for ln in out_csv.read_text().splitlines()[1:]]
    assert rks[0] == 0.0 and all(b > a for a, b in zip(rks, rks[1:]))
    for argv in (["region", model_files["wide"], "-o", str(tmp_path / "wide.csv")],
                 ["kkt-check", model_files["wide"], "--rp", "0.5"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert "does not have full column rank" in capsys.readouterr().err


def test_kkt_check_unreachable_tolerance_exits_3(model_files):
    assert main(["kkt-check", model_files["aligned"], "--rp", "0.5",
                 "--tolerance", "1e-18"]) == 3


@pytest.mark.parametrize("tolerance", ("nan", "0", "-1"))
def test_kkt_check_refuses_a_tolerance_that_is_not_positive(model_files, capsys, monkeypatch,
                                                            tolerance):
    # such a tolerance fails every certificate: the command ran a full solve,
    # printed "certificate FAILED at tolerance nan" and exited 3
    calls = []
    monkeypatch.setattr(solver, "solve_at_rate", lambda *args, **kwargs: calls.append(args))
    assert main(["kkt-check", model_files["aligned"], "--rp", "0.5",
                 "--tolerance", tolerance]) == 2
    assert "--tolerance must be positive" in capsys.readouterr().err
    assert calls == []


def test_enhance_outputs_noise(model_files, capsys):
    code = main(["enhance", model_files["aligned"], "--rp", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("}") + 1])
    assert set(payload) == {"rp", "mu", "m_matrix", "wy_tilde", "sigma_star"}
    assert payload["mu"] > 0.0


def test_oracle_command(model_files, capsys):
    assert main(["oracle", model_files["general"], "--rp", "0.5",
                 "--density", "50"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rp=0.5")


def test_oracle_rejects_degenerate_density(model_files):
    assert main(["oracle", model_files["general"], "--rp", "0.5",
                 "--density", "0"]) == 2


@pytest.mark.parametrize("command,model", [("oracle", "general"), ("kkt-check", "aligned")])
def test_nan_rate_exits_2(model_files, capsys, command, model):
    assert main([command, model_files[model], "--rp", "nan"]) == 2
    assert "rp must be nonnegative" in capsys.readouterr().err


def test_mc_command(model_files, capsys):
    assert main(["mc", model_files["general"], "--samples", "20000",
                 "--seed", "4", "--q-scale", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "rp estimate:" in out and "rk estimate:" in out
    # at Q = sigma_x the auxiliary tells nothing: both rates are 0
    assert main(["mc", model_files["general"], "--samples", "20000",
                 "--seed", "4", "--q-scale", "1"]) == 0
    for line in capsys.readouterr().out.splitlines():
        _, _, value, _, std_error = line.split()[:5]
        assert abs(float(value)) < 5.0 * float(std_error)


@pytest.mark.parametrize("key", range(7000, 7003))
def test_the_corner_of_an_ill_conditioned_model(tmp_path, key):
    # region's grid starts at rp 0, whose optimum is the corner Q = sigma_x,
    # and mc --q-scale 1 samples there; both ran into the pencil's round-off
    # at cond(sigma_x) = 1e8, which validate accepts
    m = ill_conditioned_aligned(rng_for(key), 4, 1e8)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({k: getattr(m, k).tolist()
                                for k in ("sigma_x", "sigma_wy", "sigma_wz")}))
    out_csv = str(tmp_path / "region.csv")
    assert main(["validate", str(path)]) == 0
    assert main(["region", str(path), "-o", out_csv, "--points", "5"]) == 0
    with open(out_csv) as fh:
        assert fh.read().splitlines()[1] == "0,0"
    assert main(["mc", str(path), "--samples", "20000", "--seed", "4", "--q-scale", "1"]) == 0
    # its zero-curve twin answers the corner at every rate, which certifies
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps({"sigma_x": m.sigma_x.tolist(),
                                "sigma_wy": (2 * m.sigma_wz).tolist(),
                                "sigma_wz": m.sigma_wz.tolist()}))
    twin_csv = str(tmp_path / "twin.csv")
    assert main(["region", str(twin), "-o", twin_csv, "--points", "5"]) == 0
    with open(os.path.splitext(twin_csv)[0] + ".meta.json") as fh:
        assert all(math.isfinite(p["kkt_residual"]) for p in json.load(fh)["points"])
    assert main(["kkt-check", str(twin), "--rp", "1"]) == 0


def test_region_rejects_bad_options(model_files, capsys):
    assert main(["region", model_files["general"], "-o", "/tmp/x.csv",
                 "--rp-max", "-1"]) == 2
    assert main(["region", model_files["general"], "-o", "/tmp/x.csv",
                 "--points", "1"]) == 2
    # an infinite rate grid used to reach numpy and fail as a negative rate
    for rp_max in ("inf", "nan"):
        capsys.readouterr()
        assert main(["region", model_files["general"], "-o", "/tmp/x.csv",
                     "--rp-max", rp_max]) == 2
        assert "--rp-max must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", ("0", "1", "-3"))
def test_region_rejects_degenerate_resolution(model_files, capsys, tmp_path, resolution):
    out_csv = tmp_path / "out.csv"
    assert main(["region", model_files["general"], "-o", str(out_csv),
                 "--resolution", resolution]) == 2
    assert "--resolution must be at least 2" in capsys.readouterr().err
    assert not out_csv.exists()


def test_region_without_output_fails_before_the_sweep(model_files, monkeypatch):
    calls = []
    monkeypatch.setattr(solver, "sweep_boundary",
                        lambda *args, **kwargs: calls.append(args))
    # a library caller learns it from the config, the command line from the
    # parser; neither runs the sweep first
    with pytest.raises(ValueError, match="region requires --output"):
        RunConfig(command="region", model_path=model_files["general"])
    with pytest.raises(SystemExit) as exited:
        main(["region", model_files["general"]])
    assert exited.value.code == 2
    assert calls == []
    # the recorder sits where the region command's boundary looks
    solver._boundary(load_model(model_files["general"]), [1.0])
    assert calls


def test_region_exits_3_when_a_cell_exceeds_its_newton_budget(model_files, monkeypatch,
                                                              tmp_path):
    inner = sweep.inner_convex
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise MaxIterationsExceeded("injected")
        return inner(*args, **kwargs)

    monkeypatch.setattr(sweep, "inner_convex", failing)
    code = main(["region", model_files["general"], "-o", str(tmp_path / "out.csv")])
    assert code == 3
    assert len(calls) == 3


@pytest.mark.parametrize("argv", [["region", "m.json", "-o", "out.csv"], ["mc", "m.json"]])
def test_options_left_out_take_the_run_config_defaults(argv):
    args = build_parser().parse_args(argv)
    # the parser sets only what was given, so RunConfig is the one copy
    assert set(vars(args)) == {"command", "model"} | ({"output"} if "-o" in argv else set())
    cfg = _config_from_args(args)
    want = RunConfig(command=argv[0], model_path="m.json",
                     output_path="out.csv" if "-o" in argv else None)
    assert cfg == want


@pytest.mark.parametrize("command", ["region", "kkt-check", "enhance"])
def test_only_monte_carlo_takes_a_seed(command):
    # the ascent starts from the model's structure, so no solve is seeded
    argv = [command, "m.json", "-o", "out.csv", "--seed", "1"]
    argv += [] if command == "region" else ["--rp", "0.5"]
    with pytest.raises(SystemExit) as exited:
        build_parser().parse_args(argv)
    assert exited.value.code == 2
    assert build_parser().parse_args(["mc", "m.json", "--seed", "1"]).seed == 1
