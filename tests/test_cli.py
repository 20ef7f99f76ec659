import hashlib
import json
import math

import pytest

from fatoulab import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_arguments_usage(capsys):
    code, _out, err = run([], capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_subcommand(capsys):
    code, _out, err = run(["frobnicate"], capsys)
    assert code == 1
    assert "usage" in err.lower() or "invalid" in err.lower()


def test_unknown_flag(capsys):
    code, _out, err = run(["tau", "--alpha", "0.4", "--bogus"], capsys)
    assert code == 1


def test_tau_ok(tmp_path, capsys):
    code, out, _err = run(["tau", "--alpha", "0.4", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["residual"] < 1e-12
    assert data["tau"] > 1.0
    manifest = json.loads((tmp_path / "tau-manifest.json").read_text())
    assert manifest["subcommand"] == "tau"
    assert "tau-summary.json" in manifest["outputs"]


def test_tau_out_of_range(tmp_path, capsys):
    code, _out, err = run(["tau", "--alpha", "0.7", "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "(0, 1/2)" in err


def test_verify_semiconj(tmp_path, capsys):
    code, out, _err = run(
        ["verify-semiconj", "--alpha", "0.25", "--samples", "200",
         "--seed", "11", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["max_residual"] < 1e-12
    assert data["seed"] == 11


def test_verify_semiconj_large_alpha_scaled(tmp_path, capsys):
    # absolute residuals at alpha = 0.4 hit the ulp floor of e^{iz} near the
    # strip corners; the scaled residual stays at machine precision
    code, out, _err = run(
        ["verify-semiconj", "--alpha", "0.4", "--samples", "200",
         "--seed", "11", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["max_scaled_residual"] < 1e-12


def test_verify_semiconj_residuals_do_not_depend_on_blocks(tmp_path, capsys, monkeypatch):
    # the residuals are maxima over fixed-size blocks of samples; the values
    # at alpha 0.25, seed 8, 1e5 samples (two blocks) were recorded before
    # the samples were blocked
    args = ["verify-semiconj", "--alpha", "0.25", "--seed", "8", "--out-dir", str(tmp_path)]
    code, out, _err = run(args + ["--samples", "100000"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["max_residual"] == 2.4168899914933136e-13
    assert data["max_scaled_residual"] == 2.21810999987533e-15
    _code, whole, _err = run(args + ["--samples", "1000"], capsys)
    monkeypatch.setattr(cli, "CHUNK", 37)  # does not divide 1000
    _code, blocked, _err = run(args + ["--samples", "1000"], capsys)
    assert blocked == whole


def test_seed_recorded_when_generated(tmp_path, capsys):
    code, out, _err = run(
        ["verify-semiconj", "--alpha", "0.3", "--samples", "50",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    seed = json.loads(out)["seed"]
    manifest = json.loads((tmp_path / "verify-semiconj-manifest.json").read_text())
    assert manifest["seed"] == seed


def test_blaschke_eval(tmp_path, capsys):
    code, out, _err = run(
        ["blaschke-eval", "--alpha", "0.4", "--theta", "1.5707963267948966",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["angle"] == pytest.approx(math.pi / 2, abs=1e-10)
    assert data["modulus"] == pytest.approx(1.0, abs=1e-10)
    assert data["derivative_at_zero"] == pytest.approx(0.8, abs=1e-10)


def test_blaschke_eval_exclusion(tmp_path, capsys):
    code, _out, err = run(
        ["blaschke-eval", "--alpha", "0.4", "--theta", "1e-5",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "singular" in err.lower()


def test_harmonic_closed_form(tmp_path, capsys):
    code, out, _err = run(
        ["harmonic", "--domain", "annulus", "--method", "closed-form",
         "--R", "2.0", "--rho", "1.4142135623730951",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["outer_mass"] == pytest.approx(0.75)


def test_harmonic_wos_and_reproducibility(tmp_path, capsys):
    args = ["harmonic", "--domain", "annulus", "--method", "wos",
            "--R", "2.0", "--rho", "1.0", "--walks", "4000",
            "--bins", "16", "--seed", "77", "--out-dir", str(tmp_path)]
    code, out1, _ = run(args + ["--prefix", "runA"], capsys)
    assert code == 0
    code, out2, _ = run(args + ["--prefix", "runB"], capsys)
    assert code == 0
    csv_a = (tmp_path / "runA-histogram.csv").read_text()
    csv_b = (tmp_path / "runB-histogram.csv").read_text()
    assert csv_a == csv_b
    data = json.loads(out1)
    assert data["component_masses"][0] == pytest.approx(0.5, abs=0.05)


def test_harmonic_champagne(tmp_path, capsys):
    bubbles = json.dumps([[0.4, 0.0, 0.1], [-0.3, 0.25, 0.1]])
    code, out, _err = run(
        ["harmonic", "--domain", "champagne", "--method", "wos",
         "--bubbles", bubbles, "--walks", "2000", "--seed", "5",
         "--min-bin-mass", "1e-4", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["component_masses"]) == 3
    assert "support_test" in data


def test_harmonic_champagne_needs_bubbles(tmp_path, capsys):
    code, _out, err = run(
        ["harmonic", "--domain", "champagne", "--method", "wos",
         "--walks", "100", "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "bubbles" in err


def test_harmonic_cross_validate(tmp_path, capsys):
    code, out, _err = run(
        ["harmonic", "--domain", "annulus", "--method", "cross-validate",
         "--R", str(math.e), "--walks", "20000", "--seed", "3",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True


def test_classify_radial(tmp_path, capsys):
    code, out, _err = run(
        ["classify-radial", "--R", str(math.e), "--xi", "0.0",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "bounded"
    code, out, _err = run(
        ["classify-radial", "--R", str(math.e), "--xi", "1.5707963267948966",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "escaping"


def test_circle_stats(tmp_path, capsys):
    code, out, _err = run(
        ["circle-stats", "--map", '{"kind": "power", "d": 2}',
         "--n", "2000", "--seed", "17", "--theta0", "0.7",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["invariance_ks"] < data["ks_critical_1pct"]
    orbit_csv = (tmp_path / "circle-stats-orbit.csv").read_text()
    lines = orbit_csv.strip().splitlines()
    assert lines[0] == "iteration,angle"
    assert len(lines) == 2001
    # every row parses as plain decimal numbers
    for line in lines[1:]:
        i, a = line.split(",")
        assert int(i) >= 1 and 0.0 <= float(a) < 2 * math.pi
    push_csv = (tmp_path / "circle-stats-pushforward.csv").read_text()
    assert push_csv.startswith("component_id,bin_index,bin_start_angle_rad,count\n")


def test_circle_stats_blaschke_truncates_at_exclusion(tmp_path, capsys):
    # the boundary map preserves Lebesgue measure, so a long orbit visits
    # the exclusion zones; the CLI truncates and reports instead of dying
    code, out, _err = run(
        ["circle-stats", "--map", '{"kind": "blaschke", "alpha": 0.4}',
         "--n", "5000", "--seed", "4", "--theta0", "0.1",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["orbit_points"] <= 5000
    if data["orbit_points"] < 5000:
        assert "orbit_truncated" in data


def test_spread(tmp_path, capsys):
    code, out, _err = run(
        ["spread", "--map", '{"kind": "power", "d": 2}',
         "--arc", "1.0,0.006135923151542565", "--n-max", "20",
         "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["first_full_cover"] == 10


def test_render_with_loop(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "center": [0.0, 0.0], "width": 8.0, "height": 8.0,
        "nx": 101, "ny": 101, "max_iter": 150,
    }))
    code, out, _err = run(
        ["render", "--map", '{"kind": "exp_baker", "params": {"alpha": 0.4}}',
         "--config", str(config), "--loop", "0,0,1.0",
         "--out-dir", str(tmp_path), "--prefix", "fig"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["certificate"]["verdict"] is True
    ppm = (tmp_path / "fig-image.ppm").read_bytes()
    assert ppm.startswith(b"P6\n101 101\n255\n")
    assert len(ppm) == len(b"P6\n101 101\n255\n") + 3 * 101 * 101
    # byte-identical re-render
    code, _out, _err = run(
        ["render", "--map", '{"kind": "exp_baker", "params": {"alpha": 0.4}}',
         "--config", str(config), "--loop", "0,0,1.0",
         "--out-dir", str(tmp_path), "--prefix", "fig2"], capsys)
    assert code == 0
    assert (tmp_path / "fig2-image.ppm").read_bytes() == ppm
    man1 = json.loads((tmp_path / "fig-manifest.json").read_text())
    assert "fig-image.ppm" in man1["outputs"]


def test_render_rejects_bad_loops_and_grids(tmp_path, capsys):
    # each is an argument error (exit 1) with a one-line message: a loop
    # with a non-finite center or radius, or far outside the grid (refused
    # before its samples are drawn), and a grid with a non-finite extent,
    # tol or escape radius
    grid = {"center": [0.0, 0.0], "width": 8.0, "height": 8.0,
            "nx": 21, "ny": 21, "max_iter": 20}
    baker = '{"kind": "exp_baker", "alpha": 0.4}'
    sine = '{"kind": "sine_model", "alpha": 0.4}'
    cases = [(baker, grid, loop) for loop in ("0,0,inf", "nan,0,1", "0,inf,1", "0,0,1e6")]
    cases += [(baker, {**grid, "width": math.nan}, None),
              (baker, {**grid, "center": [math.inf, 0.0]}, None),
              (baker, {**grid, "tol": 0.0}, None),
              (sine, {**grid, "escape_radius": -5.0}, None),
              (baker, {**grid, "escape_radius": 0.0}, None)]
    for kind, config, loop in cases:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        argv = ["render", "--map", kind, "--config", str(path), "--out-dir", str(tmp_path)]
        code, _out, err = run(argv + (["--loop", loop] if loop else []), capsys)
        assert code == 1, (config, loop)
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_validation_rejects_before_compute(tmp_path, capsys):
    code, _out, err = run(
        ["harmonic", "--domain", "annulus", "--method", "wos", "--R", "-1",
         "--walks", "10", "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    code, _out, err = run(
        ["harmonic", "--domain", "annulus", "--method", "wos", "--R", "2",
         "--walks", "0", "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    code, _out, err = run(
        ["circle-stats", "--map", '{"kind": "power", "d": 2}', "--n", "0",
         "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    code, _out, err = run(
        ["harmonic", "--domain", "annulus", "--method", "wos", "--walks", "10",
         "--bins", "0", "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    code, _out, err = run(
        ["harmonic", "--domain", "champagne", "--method", "wos",
         "--bubbles", "[[0.4, 0.0, 0.1]]", "--base", "0.1,0.2,0.3",
         "--walks", "10", "--seed", "1", "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    # a base point outside the domain is invalid input, not a point on the
    # boundary: at a bubble's center, and beyond the annulus (R = e)
    for where in (["--domain", "champagne", "--bubbles", "[[0.4, 0.0, 0.1]]",
                   "--base", "0.4,0"],
                  ["--domain", "annulus", "--rho", "5"]):
        code, _out, err = run(
            ["harmonic", "--method", "wos", *where, "--walks", "10", "--seed", "1",
             "--out-dir", str(tmp_path)], capsys)
        assert code == 1, where
        assert "outside the domain" in err, where


def test_render_bad_config_path(tmp_path, capsys):
    code, _out, err = run(
        ["render", "--map", '{"kind": "exp_baker", "params": {"alpha": 0.4}}',
         "--config", str(tmp_path / "missing.json"),
         "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "missing.json" in err


def test_map_json_both_spellings(tmp_path, capsys):
    # every --map takes its parameters under "params" or flat beside "kind",
    # and both spellings give the same output bytes
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({
        "center": [0.0, 0.0], "width": 8.0, "height": 8.0,
        "nx": 31, "ny": 31, "max_iter": 40,
    }))
    cases = [
        (["render", "--config", str(config)], "image.ppm",
         {"kind": "exp_baker", "alpha": 0.4}),
        (["circle-stats", "--n", "300", "--seed", "3"], "orbit.csv",
         {"kind": "power", "d": 2}),
        (["circle-stats", "--n", "300", "--seed", "3"], "orbit.csv",
         {"kind": "finite_blaschke", "zeros": [[0.0, 0.0], [0.5, 0.2]],
          "rotation": [0.6, 0.8]}),
        (["circle-stats", "--n", "300", "--seed", "3"], "orbit.csv",
         {"kind": "blaschke", "alpha": 0.4}),
    ]
    for argv, output, flat in cases:
        kind = flat["kind"]
        nested = {"kind": kind, "params": {k: v for k, v in flat.items() if k != "kind"}}
        outputs = []
        for spelling, obj in (("flat", flat), ("params", nested)):
            prefix = f"{kind}-{spelling}"
            code, _out, err = run(argv + ["--map", json.dumps(obj), "--prefix", prefix,
                                          "--out-dir", str(tmp_path)], capsys)
            assert code == 0, err
            outputs.append((tmp_path / f"{prefix}-{output}").read_bytes())
        assert outputs[0] == outputs[1], kind


@pytest.mark.parametrize("argv", [
    ["render", "--map", '{"kind": "exp_baker"}', "--config", "grid.json"],
    ["render", "--map", '{"kind": "mobius", "params": {"a": [1, 0], "b": 0}}',
     "--config", "grid.json"],
    ["render", "--map", '{"params": {"alpha": 0.4}}', "--config", "grid.json"],
    ["render", "--map", '[0.4]', "--config", "grid.json"],
    ["render", "--map", '{"kind": "frob"}', "--config", "grid.json"],
    ["circle-stats", "--map", '{"kind": "power"}'],
    ["circle-stats", "--map", '{"kind": "power", "params": 2}'],
    ["circle-stats", "--map", '{"kind": "finite_blaschke", "zeros": 0.5}'],
    ["circle-stats", "--map", '{"kind": "mobius", "a": [1], "b": 0, "c": 0, "d": 1}'],
    ["circle-stats", "--map", '{"kind": "blaschke"}'],
    ["circle-stats", "--map", '{"kind": "blaschke", "alpha": [0.4]}'],
    ["circle-stats", "--map", '{"kind": "exp_baker", "alpha": 0.4}'],
    ["circle-stats", "--map", '{"kind": "frobnicate"}'],
    ["spread", "--map", '{"kind": "rotation"}', "--arc", "1.0,0.1"],
], ids=lambda argv: argv[0] + " " + argv[2])
def test_malformed_map_json_is_a_usage_error(tmp_path, capsys, argv):
    # a missing or ill-typed key, or a kind the subcommand cannot use,
    # exits 1 with one error line, before any grid file is opened
    code, _out, err = run(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, config", [
    (["render", "--map", '{"kind": "exp_baker", "alpha": 0.4}'], {}),
    (["render", "--map", '{"kind": "exp_baker", "alpha": 0.4}'],
     {"center": [0], "width": 4.0, "height": 4.0, "nx": 8, "ny": 8, "max_iter": 8}),
    (["render", "--map", '{"kind": "exp_baker", "alpha": 0.4}'], [4.0]),
    (["harmonic", "--domain", "champagne", "--method", "wos", "--bubbles", "[[0.1]]",
      "--walks", "10", "--seed", "1"], None),
    (["harmonic", "--domain", "champagne", "--method", "wos", "--bubbles", "0.1",
      "--walks", "10", "--seed", "1"], None),
], ids=["config-empty", "config-short-center", "config-list", "bubble-short",
        "bubbles-not-a-list"])
def test_malformed_input_json_is_a_usage_error(tmp_path, capsys, argv, config):
    # JSON input beside --map (a grid config, a bubble list) with a missing
    # or ill-typed entry exits 1 with one error line
    if config is not None:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, _out, err = run(argv + ["--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: malformed ") and len(err.splitlines()) == 1


def test_mobius_pole_on_the_circle_is_a_usage_error(tmp_path, capsys):
    # the pole of (z + 0) / (z - 1) sits on the circle-preservation probe 1.0
    code, _out, err = run(
        ["circle-stats", "--map", '{"kind": "mobius", "a": 1, "b": 0, "c": 1, "d": -1}',
         "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_render_known_kind_it_cannot_draw_is_a_runtime_error(tmp_path, capsys):
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"center": [0.0, 0.0], "width": 4.0, "height": 4.0,
                                  "nx": 8, "ny": 8, "max_iter": 8}))
    code, _out, err = run(
        ["render", "--map", '{"kind": "keen", "alpha": 0.2, "lambda": -1}',
         "--config", str(config), "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: ")


# Golden CLI runs: each case runs in an empty directory with --out-dir out,
# and its digest is the first 16 hex digits of sha256 over the sha256 of the
# exit code, of stdout and of every output file, manifest included, in name
# order.  The digests were computed with numpy 2.4.6 on x86-64; numpy's SIMD
# kernels may round differently on other builds (see the CI runtime step).
GOLDEN_GRID = {"center": [0.0, 0.0], "width": 8.0, "height": 8.0,
               "nx": 64, "ny": 64, "max_iter": 100}
BUBBLES = "[[0.4, 0.0, 0.1], [-0.3, 0.25, 0.1]]"
CIRCLE_MAPS = {
    "power": '{"kind": "power", "d": 2}',
    "rotation": '{"kind": "rotation", "theta": 0.7}',
    "mobius": '{"kind": "mobius", "a": 1, "b": 0.3, "c": 0.3, "d": 1}',
    "finite-blaschke": '{"kind": "finite_blaschke", "zeros": [[0, 0], [0.5, 0.2]]}',
    "blaschke": '{"kind": "blaschke", "alpha": 0.4}',
}
GOLDEN_RUNS = {
    "tau": (["tau", "--alpha", "0.4"], None),
    "verify-semiconj": (["verify-semiconj", "--alpha", "0.25", "--samples", "3000",
                         "--seed", "8"], None),
    "blaschke-eval": (["blaschke-eval", "--alpha", "0.4", "--theta", "1.0"], None),
    "blaschke-eval-excluded": (["blaschke-eval", "--alpha", "0.4", "--theta", "1e-5"],
                               None),
    "harmonic-wos-annulus": (["harmonic", "--domain", "annulus", "--method", "wos",
                              "--R", "2.0", "--rho", "1.2", "--walks", "3000",
                              "--bins", "16", "--seed", "7", "--min-bin-mass", "1e-4"],
                             None),
    "harmonic-wos-champagne": (["harmonic", "--domain", "champagne", "--method", "wos",
                                "--bubbles", BUBBLES, "--base", "0.0,-0.2",
                                "--walks", "2000", "--seed", "5",
                                "--min-bin-mass", "1e-4"], None),
    "harmonic-pushforward": (["harmonic", "--domain", "annulus", "--method",
                              "pushforward", "--walks", "5000", "--bins", "16",
                              "--seed", "3"], None),
    "harmonic-cross-validate": (["harmonic", "--domain", "annulus", "--method",
                                 "cross-validate", "--walks", "3000", "--seed", "3"],
                                None),
    "harmonic-closed-form": (["harmonic", "--domain", "annulus", "--method",
                              "closed-form", "--R", "2.0",
                              "--rho", "1.4142135623730951"], None),
    "classify-radial-annulus": (["classify-radial", "--domain", "annulus",
                                 "--xi", "1.5707963267948966"], None),
    "classify-radial-disk": (["classify-radial", "--domain", "disk", "--xi", "0.3"],
                             None),
    "classify-radial-punctured": (["classify-radial", "--domain", "punctured",
                                   "--xi", "0.3"], None),
    **{f"circle-stats-{name}": (["circle-stats", "--map", text, "--n", "2000",
                                 "--seed", "5", "--theta0", "0.9"], None)
       for name, text in CIRCLE_MAPS.items()},
    **{f"spread-{name}": (["spread", "--map", text, "--arc", "1.0,0.0061359",
                           "--n-max", "12", "--grid", "2048"], None)
       for name, text in CIRCLE_MAPS.items()},
    "render-exp_baker": (["render", "--map", '{"kind": "exp_baker", "alpha": 0.4}',
                          "--config", "grid.json", "--loop", "0,0,1.0"], GOLDEN_GRID),
    "render-sine_model": (["render", "--map", '{"kind": "sine_model", "alpha": 0.4}',
                           "--config", "grid.json"], GOLDEN_GRID),
    "render-mcmullen": (["render", "--map",
                         '{"kind": "mcmullen", "m": 2, "l": 2, "c": [1e-4, 0]}',
                         "--config", "grid.json"], dict(GOLDEN_GRID, width=2.0,
                                                        height=2.0)),
}
GOLDEN_DIGESTS = {
    "tau": "af4cc32d9ca5d71c",
    "verify-semiconj": "cb2aa1e7574e3ae1",
    "blaschke-eval": "c605ad10dc82110f",
    "blaschke-eval-excluded": "b3924f8c2aa82b4c",
    "harmonic-wos-annulus": "86231cb9c28b473f",
    "harmonic-wos-champagne": "5914bd0c3fca24b7",
    "harmonic-pushforward": "11a7a425d4ba7523",
    "harmonic-cross-validate": "61e56de5e1cf11eb",
    "harmonic-closed-form": "e84860ce425b4779",
    "classify-radial-annulus": "3609838e6628897a",
    "classify-radial-disk": "42178554db54f799",
    "classify-radial-punctured": "a8c006592c9273b5",
    "circle-stats-power": "a6b89222d1f06675",
    "circle-stats-rotation": "edbc8d1bbab12051",
    "circle-stats-mobius": "f51ec12fcc267227",
    "circle-stats-finite-blaschke": "a09bdfee31d6c0c9",
    "circle-stats-blaschke": "5b2f3c6853b5797c",
    "spread-power": "373ff406c957854a",
    "spread-rotation": "9547e81d5566d98f",
    "spread-mobius": "038ff8c389d001a5",
    "spread-finite-blaschke": "b6240864c799924f",
    "spread-blaschke": "b3924f8c2aa82b4c",
    "render-exp_baker": "c3eaedb674da7e75",
    "render-sine_model": "1a5d118cb8be4668",
    "render-mcmullen": "715a597d593e0a00",
}


def _golden_digest(argv, grid, workdir, monkeypatch, capsys):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    if grid is not None:
        (workdir / "grid.json").write_text(json.dumps(grid))
    code = cli.main(argv + ["--out-dir", "out"])
    parts = [str(code).encode(), capsys.readouterr().out.encode()]
    out = workdir / "out"
    if out.exists():
        parts += [p.read_bytes() for p in sorted(out.iterdir())]
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def test_golden_cli_digests(tmp_path, monkeypatch, capsys):
    got = {name: _golden_digest(argv, grid, tmp_path / name, monkeypatch, capsys)
           for name, (argv, grid) in GOLDEN_RUNS.items()}
    assert got == GOLDEN_DIGESTS
