import json
import math
import re

import numpy as np
import pytest
from scipy.special import betaln

from cknlab import minimizer, shooting
from cknlab.cli import build_parser, main, parse_config_echo
from cknlab.selection import F_selection, SelectionContext
from sector_oracle import sector_closed_form


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestParams:
    def test_json_payload(self, capsys):
        code, out = run_cli(["params", "--d", "3", "--gamma", "0.5",
                             "--p", "2", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "ckn/1"
        assert payload["result"]["two_star_gamma"] == pytest.approx(5.0)
        assert payload["result"]["eta"] == pytest.approx(0.5)

    def test_validation_exit_code(self, capsys):
        code = main(["params", "--d", "3", "--gamma", "1.2", "--p", "2"])
        assert code == 2

    def test_dimension_exit_code(self, capsys):
        assert main(["params", "--d", "2", "--gamma", "0.1", "--p", "1.5"]) == 2


# per subcommand: small arguments, the JSON result keys, the CSV meta keys
# (None: no meta line) and the CSV header, as the payloads lay them out
_PARAMS_KEYS = ["a_gamma", "b_gamma", "d", "d_gamma", "eta", "gamma", "kappa",
                "m_c", "m_diff", "m_one", "p", "p_max", "sphere_area",
                "theta_gamma", "two_star_gamma", "vartheta"]
_SHOOT_KEYS = ["bisection_steps", "classification", "d_gamma", "log_c_map",
               "s_max", "v0"]
_MINIMIZE_KEYS = ["C_star", "J", "J_closed_form", "best_quotient",
                  "closed_form_quotient", "d_gamma", "dilation_balance",
                  "err_estimate", "gradient_norm", "grid_n", "iterations",
                  "mass", "reference_quotient", "s_max", "s_min"]
_SPECTRUM_KEYS = ["constrained", "d_gamma", "ell", "lambda_min", "n", "s_max",
                  "s_min"]
_FLOW_META = ["fitted_rate", "max_identity_residual", "rate_bound",
              "stationary_C"]
_SELECTION_META = ["crossing_radius", "inverse_square_integral",
                   "isotropy_diagonal_factor", "total_K_closed_form",
                   "total_K_quadrature"]
_LAYOUTS = {
    "params": ([], _PARAMS_KEYS, None, _PARAMS_KEYS),
    "profile": (["--r-min", "0.1", "--r-max", "10", "--points-per-decade", "4"],
                ["el_residual", "kind", "profile"], ["el_residual", "kind"],
                ["r", "w", "dw"]),
    "shoot": (["--tol", "1e-3"], _SHOOT_KEYS, _SHOOT_KEYS, ["r", "v"]),
    "minimize": (["--grid", "64", "--solver-tol", "1"], _MINIMIZE_KEYS,
                 _MINIMIZE_KEYS, ["d", "gamma", "p", "CStar", "J", "gridN",
                                  "errEst"]),
    "spectrum": (["--n", "100"], _SPECTRUM_KEYS, None, _SPECTRUM_KEYS),
    "flow": (["--T", "0.01", "--cells", "50"],
             ["F", "I", "mass", "t"] + _FLOW_META, _FLOW_META,
             ["t", "F", "I", "mass", "dt"]),
    "selection": (["--s-points", "3"],
                  ["columns", "curve", "rows"] + _SELECTION_META,
                  _SELECTION_META, ["s", "ell", "m_d", "m3_closed"]),
    "sweep": (["--n", "100", "--gamma-points", "2"], ["ell", "n", "points"],
              None, ["gamma", "ell", "lambdaMin", "gridN"]),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("sub", sorted(_LAYOUTS))
def test_payload_layout(sub, fmt, capsys):
    args, result_keys, meta_keys, header = _LAYOUTS[sub]
    code, out = run_cli([sub, *args, "--format", fmt], capsys)
    assert code == 0
    if fmt == "json":
        payload = json.loads(out)
        assert sorted(payload) == ["config", "result", "schema", "timestamp",
                                   "version"]
        assert sorted(payload["result"]) == sorted(result_keys)
        return
    lines = out.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    names = ["# schema", "# config", "# timestamp"]
    if meta_keys is not None:
        names.append("# meta")
        assert sorted(json.loads(comments[-1][len("# meta="):])) == meta_keys
    assert [line.split("=", 1)[0] for line in comments] == names
    assert lines[:len(comments)] == comments
    assert lines[len(comments)].split(",") == header
    rows = lines[len(comments) + 1:]
    assert rows and all(len(row.split(",")) == len(header) for row in rows)


class TestReproducibility:
    def test_byte_identical_modulo_timestamp(self, tmp_path):
        target = tmp_path / "a.json"
        args = ["params", "--d", "4", "--gamma", "0.25", "--p", "1.5",
                "--out", str(target)]
        main(args)
        first = target.read_text()
        main(args)
        second = target.read_text()
        strip = lambda t: re.sub(r'"timestamp": "[^"]*"', "", t)
        assert strip(first) == strip(second)

    def test_sweep_byte_identical_modulo_timestamp(self, tmp_path):
        # each eigensolve starts from its operator's model eigenfunction, so
        # repeated sweeps print the same digits
        target = tmp_path / "s.csv"
        args = ["sweep", "--n", "1000", "--gamma-points", "4",
                "--format", "csv", "--out", str(target)]
        texts = []
        for _ in range(3):
            assert main(args) == 0
            texts.append(re.sub(r"# timestamp=.*", "", target.read_text()))
        assert texts[0] == texts[1] == texts[2]

    def test_sweep_workers_print_as_serial(self, capsys):
        # the pool path spreads the points over two processes and prints the
        # bytes of the serial path, apart from the timestamp and the echo of
        # --workers in the config
        texts = []
        for workers in ("1", "2"):
            assert main(["sweep", "--d", "3", "--p", "2", "--gamma-points", "4",
                         "--n", "200", "--workers", workers]) == 0
            texts.append(re.sub(r'"timestamp": "[^"]*"|"workers": \d+', "",
                                capsys.readouterr().out))
        assert texts[0] == texts[1]

    def test_shared_parser_prints_as_single_calls(self, tmp_path, capsys):
        # one parser serves every call of a process: calls of different
        # subcommands, one of them reading --config, print the bytes each
        # prints with a parser of its own
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma=0.5\np=2.2\n")
        calls = [["spectrum", "--n", "400"], ["params", "--config", str(cfg)],
                 ["sweep", "--n", "400", "--gamma-points", "3",
                  "--format", "csv"],
                 ["params", "--d", "4", "--p", "1.5"]]

        def outputs(fresh):
            texts = []
            for args in calls:
                if fresh:
                    build_parser.cache_clear()
                assert main(args) == 0
                texts.append(re.sub(r'"timestamp": "[^"]*"|# timestamp=.*', "",
                                    capsys.readouterr().out))
            return texts

        shared = outputs(fresh=False)
        assert build_parser() is build_parser()
        assert outputs(fresh=True) == shared

    def test_config_echo_round_trip(self, tmp_path):
        out = tmp_path / "o.json"
        main(["params", "--d", "3", "--gamma", "0.5", "--p", "2.0",
              "--out", str(out)])
        cfg = parse_config_echo(out.read_text())
        assert cfg["d"] == 3 and cfg["gamma"] == 0.5 and cfg["p"] == 2.0
        assert cfg["subcommand"] == "params"

    def test_csv_config_echo(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["params", "--d", "3", "--gamma", "0.0", "--p", "2.0",
              "--format", "csv", "--out", str(out)])
        cfg = parse_config_echo(out.read_text())
        assert cfg["format"] == "csv" and cfg["d"] == 3

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=3\ngamma=0.5\np=1.7\n")
        code, out = run_cli(["params", "--config", str(cfg), "--p", "2.0"],
                            capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["gamma"] == 0.5
        assert payload["config"]["p"] == 2.0  # explicit flag wins


class TestCompute:
    def test_minimize_small_grid(self, tmp_path):
        out = tmp_path / "m.json"
        code = main(["minimize", "--d", "3", "--gamma", "0", "--p", "2",
                     "--grid", "256", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        got = payload["result"]["best_quotient"]
        ref = payload["result"]["closed_form_quotient"]
        assert abs(got - ref) / ref < 1e-4

    def test_spectrum_zero_mode(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["spectrum", "--d", "3", "--gamma", "0", "--p", "2",
                     "--ell", "1", "--n", "1000", "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert abs(result["lambda_min"]) < 1e-4
        # the grid the solve sized for itself, in s = r at gamma = 0
        assert 0 < result["s_min"] < 1 < result["s_max"]
        assert result["d_gamma"] == 3.0 and "r_max" not in result

    @pytest.mark.parametrize("ell", ["0", "1", "2"])
    def test_spectrum_near_p_one(self, ell, tmp_path):
        # the weights are taken in log form, so the far tail of the profile
        # no longer underflows into a singular mass matrix
        out = tmp_path / "s.json"
        assert main(["spectrum", "--d", "3", "--gamma", "0", "--p", "1.02",
                     "--ell", ell, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["lambda_min"] > 0

    @pytest.mark.parametrize("d, gamma, p, rel", [
        # the default bounds are bounds in s; the same bounds in r would cut
        # through the profile here
        ("3", "1.5", "1.49", 1e-3),
        # near p = 1 the amplitude a^(1/(p-1)) leaves the float range, but no
        # sector weight needs it; 0.150126 at n = 2000 against 0.150122
        ("5", "1.9", "1.0067", 1e-2),
        # d_gamma = 102 and 402: the fixed grid [1e-4, 1e4] raised
        # SingularMass, and |S^401| overflowed math.gamma
        ("3", "1.98", "1.005", 1e-3),
        ("3", "1.995", "1.002", 1e-3)])
    def test_spectrum_large_gamma(self, d, gamma, p, rel, tmp_path):
        out = tmp_path / "s.json"
        assert main(["spectrum", "--d", d, "--gamma", gamma, "--p", p,
                     "--ell", "1", "--out", str(out)]) == 0
        lam = json.loads(out.read_text())["result"]["lambda_min"]
        want = sector_closed_form(int(d), float(gamma), float(p), 1)
        assert lam == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("args, low, high", [
        (["--T", "20", "--cells", "100"], 1e-3, 0.02),
        (["--T", "1", "--amplitude", "0"], 0.0, 0.0)])
    def test_flow_identity_residual_at_roundoff(self, args, low, high, tmp_path):
        # once F reaches roundoff its increments and I are noise; those
        # intervals count as 0, not as residuals of 1e12
        out = tmp_path / "f.json"
        assert main(["flow", *args, "--format", "json", "--out", str(out)]) == 0
        res = json.loads(out.read_text())["result"]["max_identity_residual"]
        assert low <= res <= high

    def test_flow_short_run_has_no_fitted_rate(self, tmp_path):
        out = tmp_path / "f.json"
        assert main(["flow", "--T", "0.05", "--cells", "50", "--format",
                     "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["fitted_rate"] is None

    def test_flow_rough_datum_at_large_gamma(self, tmp_path):
        # amplitude 1 takes the datum down to vacuum where cos(alpha log r)
        # = -1; no face reaches the velocity cap, so dF/dt = -I holds
        out = tmp_path / "f.json"
        assert main(["flow", "--d", "3", "--gamma", "1.8", "--m", "0.95",
                     "--T", "50", "--amplitude", "1.0", "--format", "json",
                     "--out", str(out)]) == 0
        res = json.loads(out.read_text())["result"]["max_identity_residual"]
        assert res < 0.05

    def test_flow_fitted_rate_at_large_gamma(self, tmp_path):
        # the default datum 1 + 0.1 cos(alpha log r) is smooth in s = r^alpha,
        # so the fit reads the closed-form radial rate
        # (2-gamma)^2 (2 + d_gamma (m-1)) = 0.056 at (3, 1.8, 0.95), with
        # d_gamma = 12, inside criterion 8's window [0.95, 1.10] x pred
        out = tmp_path / "f.json"
        assert main(["flow", "--d", "3", "--gamma", "1.8", "--m", "0.95",
                     "--T", "200", "--cells", "400", "--format", "json",
                     "--out", str(out)]) == 0
        rate = json.loads(out.read_text())["result"]["fitted_rate"]
        d_gamma = 2.0 * (3.0 - 1.8) / (2.0 - 1.8)
        pred = (2.0 - 1.8) ** 2 * (2.0 + d_gamma * (0.95 - 1.0))
        assert 0.95 * pred <= rate <= 1.10 * pred

    def test_flow_csv_decay(self, tmp_path):
        out = tmp_path / "f.csv"
        code = main(["flow", "--d", "3", "--gamma", "0", "--m", "0.75",
                     "--T", "0.5", "--cells", "150", "--format", "csv",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        header, data = rows[0], rows[1:]
        assert header == "t,F,I,mass,dt"
        t, F = [], []
        for line in data:
            cols = [float(x) for x in line.split(",")]
            t.append(cols[0])
            F.append(cols[1])
        t, F = np.array(t), np.array(F)
        assert np.all(F <= F[0] * np.exp(-4.0 * t) * 1.01)

    def test_shoot_json(self, tmp_path, capsys):
        code, out = run_cli(["shoot", "--d", "3", "--gamma", "0", "--p", "2",
                             "--tol", "1e-5"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["v0"] == pytest.approx(4.0, rel=1e-5)
        assert result["log_c_map"] == 0.0
        assert result["s_max"] == 2e3

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--d", "3", "--p", "2", "--gamma-start", "0",
                     "--gamma-stop", "0.05", "--gamma-points", "3",
                     "--n", "500", "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
        assert rows[0] == "gamma,ell,lambdaMin,gridN"
        assert len(rows) == 4

    def test_selection_summary(self, tmp_path):
        out = tmp_path / "sel.json"
        code = main(["selection", "--d", "3", "--p", "2", "--s-points", "5",
                     "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["result"]
        assert res["crossing_radius"] == pytest.approx(1.0, abs=1e-8)
        assert abs(res["total_K_quadrature"] - res["total_K_closed_form"]) \
            < 1e-8 * abs(res["total_K_closed_form"])

    def test_selection_fmap(self, capsys):
        # F(y) of the translate at distance y: the first row is y = 0, and F
        # rises strictly along y (-12.53 to 5.96 on [0, 2])
        code, out = run_cli(["selection", "--d", "3", "--p", "2", "--curve",
                             "fmap", "--s-max", "2", "--s-points", "5",
                             "--format", "json"], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert res["columns"] == ["y", "F"]
        y, F = np.array(res["rows"]).T
        assert y[0] == 0.0
        assert F[0] == F_selection(0.0, SelectionContext(3, 2.0))
        assert np.all(np.diff(F) > 0)

    def test_selection_near_p_one(self, capsys):
        # the amplitude a^(2p/(p-1)) of the mass is exp(938) at p = 1.02, the
        # mass M only 1.09e5; the closed form of the total is
        # (p-1)(d-2) M/(2p (d+2-p(d-2))), M a Beta integral in peak form
        code, out = run_cli(["selection", "--d", "3", "--p", "1.02", "--curve",
                             "angular", "--s-points", "10", "--format", "json"],
                            capsys)
        assert code == 0
        d, p = 3, 1.02
        eta, k = d - p * (d - 2.0), 1.0 / (p - 1.0)
        b, nu, q = eta**2 / (p * (p - 1.0) ** 2), d / 2.0, 2.0 * p * k
        mass = math.exp(math.log(4.0 * math.pi) + q * math.log(2.0 * p / eta)
                        + nu * math.log(b) + betaln(nu, q - nu) - math.log(2.0))
        closed = (p - 1.0) * (d - 2.0) * mass / (2.0 * p * (d + 2.0 - p * (d - 2.0)))
        res = json.loads(out)["result"]
        assert res["total_K_quadrature"] == pytest.approx(closed, rel=1e-8)

    def test_selection_angular_next_to_one(self, capsys):
        # 2 sqrt(s)/(1+s) rounds to 1 at s = 1 + 1e-9, where arctanh has no
        # finite value; m3_closed must still match m_d there
        code, out = run_cli(["selection", "--d", "3", "--p", "2", "--curve",
                             "angular", "--s-min", "1.000000001", "--s-max", "2",
                             "--s-points", "3", "--format", "json"], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert res["columns"] == ["s", "ell", "m_d", "m3_closed"]
        for _, _, m, m3 in res["rows"]:
            assert m3 == pytest.approx(m, rel=1e-12, abs=1e-15)


class TestExitCodes:
    @pytest.mark.parametrize("n", ["2", "3"])
    def test_spectrum_grid_below_minimum(self, n, capsys):
        code = main(["spectrum", "--ell", "0", "--n", n])
        assert code == 2
        assert "at least" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["spectrum", "--n", "-1"],
                                      ["sweep", "--n", "-1", "--gamma-points", "2"]])
    def test_negative_grid_size(self, args, capsys):
        # the node count is checked before the grid is built
        assert main(args) == 2
        assert "at least 16 nodes, got -1" in capsys.readouterr().err

    def test_flow_newton_failure(self, monkeypatch, capsys):
        import cknlab.flow
        monkeypatch.setattr(cknlab.flow, "_NEWTON_ITERS", 1)
        assert main(["flow", "--T", "0.01", "--cells", "50"]) == 3
        assert "StepFailure: Newton did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("name, value, message", [
        ("NEWTON_MAX_STEPS", 1, "no convergence in 1 Newton steps"),
        ("NEWTON_LAM_MAX", 1e-3, "the damping passed")])
    def test_minimize_no_descent(self, name, value, message, monkeypatch,
                                 capsys):
        monkeypatch.setattr(minimizer, name, value)
        assert main(["minimize", "--d", "3", "--gamma", "0", "--p", "2",
                     "--grid", "64", "--start", "cold"]) == 3
        err = capsys.readouterr().err
        assert "NoDescent" in err and message in err

    def test_spectrum_negative_ell(self):
        assert main(["spectrum", "--ell", "-1", "--n", "100"]) == 2

    def test_config_without_path(self, capsys):
        assert main(["flow", "--config"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_config_file_missing(self, tmp_path):
        assert main(["flow", "--config", str(tmp_path / "none.cfg")]) == 2

    @pytest.mark.parametrize("flag, value, word", [("--mass", "-1", "mass"),
                                                   ("--m", "0.3", "exponent")])
    def test_flow_bad_input(self, flag, value, word, capsys):
        assert main(["flow", flag, value]) == 2
        assert word in capsys.readouterr().err

    def test_flow_m_error_names_m_interval(self, capsys):
        # at d = 3, gamma = 0 the admissible m-interval is (2/3, 1); the
        # message speaks of m, not of p = 1/(2m - 1)
        assert main(["flow", "--m", "0.55"]) == 2
        err = capsys.readouterr().err
        assert "m must lie in the open interval (0.6666666666666666, 1)" in err
        assert "got 0.55" in err

    @pytest.mark.parametrize("sub", ["profile"])
    @pytest.mark.parametrize("bounds", [["--r-min", "0"], ["--r-min", "-1"],
                                        ["--r-min", "10", "--r-max", "1"]])
    def test_radial_bounds_rejected(self, sub, bounds, capsys):
        assert main([sub, *bounds]) == 2
        assert "0 < r_min < r_max < inf" in capsys.readouterr().err

    @pytest.mark.parametrize("sub", ["spectrum", "sweep"])
    @pytest.mark.parametrize("bounds", [["--r-min", "0"], ["--r-min", "-1"],
                                        ["--r-min", "10", "--r-max", "1"]])
    def test_spectral_bound_flags_removed(self, sub, bounds):
        # the sector solves size their own grid; argparse rejects the old
        # flags with SystemExit(2)
        with pytest.raises(SystemExit) as exc:
            main([sub, *bounds])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bounds", [["--r-min", "0"], ["--r-min", "-1"],
                                        ["--r-min", "10", "--r-max", "1"]])
    def test_minimize_bound_flags_removed(self, bounds):
        # the minimizer sizes its own grid; argparse rejects the old flags
        # with SystemExit(2)
        with pytest.raises(SystemExit) as exc:
            main(["minimize", *bounds])
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [["--grid", "0"], ["--grid", "1"],
                                      ["--grid", "2"], ["--solver-tol", "-1"],
                                      ["--solver-tol", "0"],
                                      ["--solver-tol", "inf"]])
    def test_minimize_bad_input(self, args):
        assert main(["minimize", *args]) == 2

    def test_no_richardson_flag_removed(self):
        # argparse rejects the unknown flag with SystemExit(2)
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--no-richardson"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("gamma, p", [("1.5", "1.49"), ("1.9", "1.05"),
                                          ("1.2", "1.7")])
    def test_minimize_formerly_truncated_profile_solves(self, gamma, p, capsys):
        # the fixed r-grid [1e-3, 1e3] truncated these minimizers; the grid
        # in s holds them
        assert main(["minimize", "--d", "3", "--gamma", gamma, "--p", p]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["best_quotient"] == pytest.approx(
            result["closed_form_quotient"], rel=1e-4)
        assert result["s_min"] < result["s_max"]
        assert result["d_gamma"] == pytest.approx(
            2.0 * (3.0 - float(gamma)) / (2.0 - float(gamma)), rel=1e-15)

    @pytest.mark.parametrize("args", [["--record-every", "0"], ["--T", "0"],
                                      ["--T", "-1"], ["--r-out", "0"],
                                      ["--cells", "0"], ["--cells", "1"],
                                      ["--mass", "nan"], ["--mass", "inf"],
                                      ["--mass", "0"]])
    def test_flow_bad_run_input(self, args, capsys):
        assert main(["flow", "--cells", "50", *args]) == 2
        assert "parameter error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--s-min", "0"], ["--s-min", "-1"],
                                      ["--s-max", "-1"],
                                      ["--s-min", "10", "--s-max", "1"],
                                      ["--s-points", "0"], ["--s-points", "-2"]])
    def test_selection_bad_input(self, args, capsys):
        assert main(["selection", *args]) == 2
        assert "parameter error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--tol", "nan"], ["--tol", "inf"],
                                      ["--p", "3"], ["--tol", "0"],
                                      ["--tol", "-1"]])
    def test_shoot_bad_input(self, args, capsys):
        assert main(["shoot", *args]) == 2
        assert "parameter error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["--s-max", "0"], ["--s-max", "-5"],
                                      ["--s-max", "1e-7"], ["--s-max", "2e3"]])
    def test_shoot_s_max_flag_removed(self, args):
        # shooting sizes its own range; argparse rejects the old flag with
        # SystemExit(2)
        with pytest.raises(SystemExit) as exc:
            main(["shoot", *args])
        assert exc.value.code == 2

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_sweep_bad_gamma_points(self, points, capsys):
        assert main(["sweep", "--n", "100", "--gamma-points", points]) == 2
        assert "--gamma-points" in capsys.readouterr().err

    def test_profile_bad_points_per_decade(self, capsys):
        assert main(["profile", "--points-per-decade", "0"]) == 2
        assert "points_per_decade" in capsys.readouterr().err

    def test_profile_amplitude_overflow(self, capsys):
        # the amplitude a^(1/(p-1)) is exp(773) at (5, 1.9, 1.0067), but the
        # profile (a/(b + r^c))^(1/(p-1)) peaks at exp(34.5)
        code, out = run_cli(["profile", "--d", "5", "--gamma", "1.9",
                             "--p", "1.0067", "--format", "json"], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert res["el_residual"] <= 1e-13
        d, gamma, p = 5, 1.9, 1.0067
        eta, c, k = d - gamma - p * (d - 2.0), 2.0 - gamma, 1.0 / (p - 1.0)
        a, b = c * eta / (p - 1.0) ** 2, eta**2 / (p * (p - 1.0) ** 2)
        r = np.array(res["profile"]["radii"])
        exact = np.exp(k * (math.log(a) - np.log(b + r**c)))
        assert np.allclose(res["profile"]["values"], exact, rtol=1e-12, atol=0)
        # at (3, 1.999, 1.0002) the peak exp(1116.7) itself overflows
        assert main(["profile", "--d", "3", "--gamma", "1.999",
                     "--p", "1.0002"]) == 3
        assert "AmplitudeOverflow" in capsys.readouterr().err

    def test_shoot_unresolved_near_p_max(self, monkeypatch, capfd):
        # starts over 1e-4 relative wide reach s_max = 2e3 undecided at
        # p = 2.9; with the cap at that range no v0 within --tol can be
        # certified
        monkeypatch.setattr(shooting, "_S_MAX_CAP", shooting._S_MAX)
        assert main(["shoot", "--d", "3", "--gamma", "0", "--p", "2.9",
                     "--tol", "1e-8"]) == 3
        err = capfd.readouterr().err
        assert "ClassificationAmbiguous" in err and "s_max=2000" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shoot_near_p_max_solves(self, capfd):
        # the range grows until the undecided starts span less than --tol
        assert main(["shoot", "--d", "3", "--gamma", "0", "--p", "2.9",
                     "--tol", "1e-8", "--format", "json"]) == 0
        out, err = capfd.readouterr()
        assert err == ""
        result = json.loads(out)["result"]
        # closed-form peak (p (2 - gamma)/eta)^(1/(p-1)), eta = 3 - p
        expected = (2.9 * 2.0 / 0.1) ** (1.0 / 1.9)
        assert result["v0"] == pytest.approx(expected, rel=1e-8)
        assert result["s_max"] > 2e3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_radial_spectrum_near_gamma_two_exit_code(self, capfd):
        # d_gamma = 2002: the zero-mean load vector holds entries of 5e-280
        # to 3e-187, so the Schur complement c^T K^-1 c of the solve
        # underflows; the solve keeps c as assembled and fails by name
        code = main(["spectrum", "--d", "3", "--gamma", "1.999",
                     "--p", "1.0002", "--ell", "0"])
        err = capfd.readouterr().err
        assert code == 3
        assert "EigenSolverFailure" in err and "Schur complement" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_spectrum_measure_overflow_near_gamma_two(self, capfd):
        # d_gamma = 2002: the ell = 2 grid reaches far enough out that the
        # measure (s/s_c)^(d_gamma-1) passes the float range; the error says
        # so, where an infinite mass matrix was reported as singular
        code = main(["spectrum", "--d", "3", "--gamma", "1.999",
                     "--p", "1.0002", "--ell", "2"])
        err = capfd.readouterr().err
        assert code == 3
        assert "AmplitudeOverflow" in err and "measure" in err
        assert "SingularMass" not in err and "RuntimeWarning" not in err
        # the ell = 1 grid stays inside it, and so does its start, the model
        # t^2000 (1 + t^2)^(-sigma) scaled to unit max before its exp
        assert main(["spectrum", "--d", "3", "--gamma", "1.999",
                     "--p", "1.0002", "--ell", "1"]) == 0
        out = json.loads(capfd.readouterr().out)
        assert out["result"]["lambda_min"] == 0.5461310313890697

    def test_flow_mesh_underflow_near_gamma_two(self, capsys):
        # d_gamma = 402: s^d_gamma underflows to 0 on the first cells, whose
        # volume 0 would leave the Newton system singular at t = 0
        assert main(["flow", "--d", "3", "--gamma", "1.995", "--m", "0.999",
                     "--T", "1", "--cells", "400"]) == 3
        err = capsys.readouterr().err
        assert "AmplitudeOverflow" in err and "d_gamma = 402" in err

    @pytest.mark.parametrize("gamma, m, cells, gate", [
        ("1.987", "0.997", "200", 0.02), ("1.99", "0.998", "400", 0.05)],
        ids=["d_gamma155.8", "d_gamma202"])
    def test_flow_identity_near_gamma_two(self, gamma, m, cells, gate, tmp_path):
        # a mesh with a uniform core on s in [0, 1] put 16 of 200 cells on the
        # stationary mass at d_gamma = 155.8 and read a residual of 1.0, and
        # at d_gamma = 202 left its first cells with volume 0; the mesh that
        # follows sqrt(C) holds the mass, and dF/dt = -I holds within the gate
        out = tmp_path / "f.json"
        assert main(["flow", "--d", "3", "--gamma", gamma, "--m", m, "--T", "1",
                     "--cells", cells, "--format", "json", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["result"]["max_identity_residual"] < gate

    def test_shoot_near_gamma_two(self, capfd):
        # the map back to r leaves the float range near the launch radius
        # here; the command still succeeds, with nothing on stderr
        assert main(["shoot", "--d", "3", "--gamma", "1.965", "--p", "1.01"]) == 0
        assert capfd.readouterr().err == ""

    def test_shoot_integrator_failure(self, monkeypatch, capfd):
        # a compiled-integrator failure is a numerical failure: exit 3 with
        # the library error, and neither a traceback nor scipy's warning
        monkeypatch.setattr(shooting, "_MAX_STEPS", 5)
        assert main(["shoot", "--d", "3", "--gamma", "0", "--p", "2"]) == 3
        err = capfd.readouterr().err
        assert "ClassificationAmbiguous" in err and "nsteps" in err
        assert "Traceback" not in err and "UserWarning" not in err

    def test_flow_from_profile_export(self, tmp_path):
        datum = tmp_path / "datum.json"
        assert main(["profile", "--r-min", "0.01", "--r-max", "100",
                     "--points-per-decade", "8", "--out", str(datum)]) == 0
        out = tmp_path / "flow.json"
        code = main(["flow", "--T", "0.01", "--cells", "50",
                     "--initial", str(datum), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["initial"] == str(datum)
        mass = payload["result"]["mass"]
        assert abs(mass[-1] - mass[0]) < 1e-10 * mass[0]

    def test_flow_rejects_datum_short_of_cell_centers(self, tmp_path, capsys):
        # the first of 50 cell centers lies at r = 0.064, inside the datum's
        # gap below r = 0.1: no silent constant extension there
        datum = tmp_path / "datum.json"
        assert main(["profile", "--r-min", "0.1", "--r-max", "100",
                     "--points-per-decade", "8", "--out", str(datum)]) == 0
        capsys.readouterr()
        assert main(["flow", "--T", "0.01", "--cells", "50",
                     "--initial", str(datum)]) == 2
        err = capsys.readouterr().err
        assert "parameter error" in err and "must cover the cell centers" in err

    @pytest.mark.parametrize("text", ["", "r,w\n"], ids=["empty", "header_only"])
    def test_flow_rejects_datum_without_rows(self, text, tmp_path, capsys):
        datum = tmp_path / "datum.csv"
        datum.write_text(text)
        assert main(["flow", "--initial", str(datum)]) == 2
        err = capsys.readouterr().err
        assert "parameter error" in err and "data rows" in err

    def test_flow_rejects_datum_without_header(self, tmp_path, capsys):
        datum = tmp_path / "datum.csv"
        datum.write_text("0.1,1.0\n0.2,0.9\n0.3,0.8\n")
        assert main(["flow", "--initial", str(datum)]) == 2
        err = capsys.readouterr().err
        assert "parameter error" in err and "header row" in err

    def test_flow_rejects_truncated_datum(self, tmp_path, capsys):
        # a datum vanishing beyond r = 5 has empty cells, which the scheme
        # would never fill: a parameter error, not a frozen run
        from cknlab.flow import stationary_profile
        base = stationary_profile(0.75, 0.0, 3, 50.0)
        r = np.geomspace(1e-3, 25.0, 200)
        w = np.where(r < 5.0, base(r), 0.0)
        datum = tmp_path / "trunc.csv"
        datum.write_text("r,w\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(r, w)))
        assert main(["flow", "--cells", "200", "--T", "1",
                     "--initial", str(datum)]) == 2
        err = capsys.readouterr().err
        assert "parameter error" in err and "finite and positive" in err
