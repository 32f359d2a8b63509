"""Command-line interface: schemas, exit codes, round-trips, determinism."""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

import kummerlab as kl
from kummerlab import jsonio
from kummerlab.cli import main


@pytest.fixture(scope="module")
def tau_file(tmp_path_factory, pm_g2):
    path = tmp_path_factory.mktemp("cli") / "tau.json"
    path.write_text(json.dumps(jsonio.period_matrix_to_json(pm_g2)))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestThetaCommand:
    def test_value_matches_library(self, tau_file, tmp_path, pm_g2, capsys):
        z = np.array([0.2 + 0.1j, -0.3 + 0.05j])
        inp = tmp_path / "z.json"
        inp.write_text(json.dumps(jsonio.point_to_json(z)))
        code, out = run_cli(["theta", "--tau", tau_file, "--input", str(inp)], capsys)
        assert code == 0
        got = json.loads(out)["value"]
        want = kl.theta(pm_g2, z)
        assert got["re"] == pytest.approx(want.real, abs=1e-13)
        assert got["im"] == pytest.approx(want.imag, abs=1e-13)

    def test_argument_beyond_reduction_is_exit_two(self, tau_file, tmp_path, capsys):
        inp = tmp_path / "far.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.array([0.1 + 1e19j, 0.2]))))
        assert main(["theta", "--tau", tau_file, "--input", str(inp)]) == 2
        assert "too large to reduce" in capsys.readouterr().err

    # Y^-1 Im z would overflow here: the refusal comes before it, with no numpy warning
    def test_argument_at_the_double_range_is_exit_two(self, tau_file, tmp_path, capsys):
        inp = tmp_path / "farthest.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.array([1.7e308j, 0.0]))))
        assert main(["theta", "--tau", tau_file, "--input", str(inp)]) == 2
        assert "too large to reduce" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lam, code, message", [(1e-200, 2, "lattice box"), (1e-310, 1, "numerically singular")]
    )
    def test_extreme_imaginary_part(self, tmp_path, capsys, lam, code, message):
        tau = tmp_path / "tau3.json"
        tau.write_text(json.dumps({"g": 3, "tau_re": np.zeros((3, 3)).tolist(),
                                   "tau_im": np.diag([lam, 1.0, 1.0]).tolist()}))
        inp = tmp_path / "z0.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(3))))
        assert main(["theta", "--tau", str(tau), "--input", str(inp)]) == code
        assert message in capsys.readouterr().err

    def test_missing_tau_file_is_input_error(self, tmp_path, capsys):
        inp = tmp_path / "z.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(2))))
        code, _ = run_cli(["theta", "--tau", str(tmp_path / "nope.json"), "--input", str(inp)], capsys)
        assert code == 1

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_cli(["theta", "--tau", str(bad), "--input", str(bad)], capsys)
        assert code == 1

    def test_non_numeric_point_is_input_error(self, tau_file, tmp_path, capsys):
        inp = tmp_path / "z_text.json"
        inp.write_text(json.dumps({"re": ["a", 0.1], "im": [0.0, 0.0]}))
        assert main(["theta", "--tau", tau_file, "--input", str(inp)]) == 1
        assert "field 're' must hold numbers" in capsys.readouterr().err

    def test_non_numeric_period_matrix_is_input_error(self, tmp_path, capsys):
        tau = tmp_path / "tau_text.json"
        tau.write_text(json.dumps({"g": 2, "tau_re": [[0.0, "x"], [0.0, 0.0]],
                                   "tau_im": [[1.0, 0.0], [0.0, 1.0]]}))
        inp = tmp_path / "z0.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(2))))
        assert main(["theta", "--tau", str(tau), "--input", str(inp)]) == 1
        assert "field 'tau_re' must hold numbers" in capsys.readouterr().err

    # numpy reads "0.1" and true as numbers; the wire formats hold numbers only
    @pytest.mark.parametrize(
        "field, tau_re, tau_im, z_re",
        [
            ("tau_re", [["0.1", "0.05"], ["0.05", "-0.2"]], [[1.0, 0.3], [0.3, 1.2]], [0.1, 0.2]),
            ("tau_im", [[0.1, 0.05], [0.05, -0.2]], [[True, 0.3], [0.3, 1.2]], [0.1, 0.2]),
            ("re", [[0.1, 0.05], [0.05, -0.2]], [[1.0, 0.3], [0.3, 1.2]], ["0.1", 0.2]),
            ("re", [[0.1, 0.05], [0.05, -0.2]], [[1.0, 0.3], [0.3, 1.2]], [False, 0.2]),
        ],
        ids=["string-in-tau_re", "bool-in-tau_im", "string-in-re", "bool-in-re"],
    )
    def test_string_or_bool_is_input_error(self, tmp_path, capsys, field, tau_re, tau_im, z_re):
        tau = tmp_path / "tau_typed.json"
        tau.write_text(json.dumps({"g": 2, "tau_re": tau_re, "tau_im": tau_im}))
        inp = tmp_path / "z_typed.json"
        inp.write_text(json.dumps({"re": z_re, "im": [0.0, 0.0]}))
        assert main(["theta", "--tau", str(tau), "--input", str(inp)]) == 1
        assert f"field '{field}' must hold numbers" in capsys.readouterr().err

    def test_missing_field_reports_path_and_field(self, tau_file, tmp_path, capsys):
        inp = tmp_path / "zz.json"
        inp.write_text(json.dumps({"re": [0.0, 0.0]}))
        code = main(["theta", "--tau", tau_file, "--input", str(inp)])
        assert code == 1

    # a missing field is reported as missing, not as one that holds no numbers
    def test_missing_point_part_is_named_missing(self, tau_file, tmp_path, capsys):
        inp = tmp_path / "im_only.json"
        inp.write_text(json.dumps({"im": [0.0, 0.0]}))
        assert main(["theta", "--tau", tau_file, "--input", str(inp)]) == 1
        assert "missing field 're'" in capsys.readouterr().err

    def test_missing_tau_part_is_named_missing(self, tmp_path, capsys):
        tau = tmp_path / "tau_no_im.json"
        tau.write_text(json.dumps({"g": 2, "tau_re": [[0.0, 0.0], [0.0, 0.0]]}))
        inp = tmp_path / "z0.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(2))))
        assert main(["theta", "--tau", str(tau), "--input", str(inp)]) == 1
        assert "missing field 'tau_im'" in capsys.readouterr().err

    def test_involution_missing_zeta_prime_is_named_missing(self, tau_file, tmp_path, capsys):
        inp = tmp_path / "inv_noprime.json"
        inp.write_text(json.dumps({"points": [jsonio.point_to_json(np.zeros(2))] * 4}))
        assert main(["involution", "--tau", tau_file, "--input", str(inp)]) == 1
        assert "missing field 'zeta_prime'" in capsys.readouterr().err

    def test_eps_tol_ordering_enforced(self, tau_file, tmp_path, fay, capsys):
        inp = tmp_path / "cfg3.json"
        inp.write_text(json.dumps(jsonio.config_to_json(fay.config)))
        code = main(
            ["secant-check", "--tau", tau_file, "--input", str(inp),
             "--eps", "1e-6", "--tol", "1e-8"]
        )
        assert code == 1
        assert "--tol must be finite and above 1e-06" in capsys.readouterr().err

    def test_eps_above_default_tol_is_fine_where_tol_is_unread(self, tau_file, tmp_path, capsys):
        inp = tmp_path / "z4.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(2))))
        code, out = run_cli(
            ["theta", "--tau", tau_file, "--input", str(inp), "--eps", "1e-6"], capsys
        )
        assert code == 0
        assert json.loads(out)["eps"] == 1e-6

    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0"])
    def test_eps_not_finite_and_positive_is_input_error(self, tau_file, tmp_path, capsys, eps):
        inp = tmp_path / "z5.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(2))))
        assert main(["theta", "--tau", tau_file, "--input", str(inp), f"--eps={eps}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "eps must be finite and positive" in err

    def test_underflowing_tail_bound_is_exit_two(self, tmp_path, capsys):
        # s_min = 1e-150 at g = 3: (s_min / 2)^g underflows to 0 in the tail bound
        tau = tmp_path / "tau3u.json"
        tau.write_text(json.dumps({"g": 3, "tau_re": np.zeros((3, 3)).tolist(),
                                   "tau_im": np.diag([1e-300, 1.0, 1.0]).tolist()}))
        inp = tmp_path / "z3u.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(3))))
        assert main(["theta", "--tau", str(tau), "--input", str(inp)]) == 2
        assert "no truncation radius" in capsys.readouterr().err


class TestKummerCommand:
    def test_projective_output(self, tau_file, tmp_path, capsys):
        inp = tmp_path / "z.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.array([0.1, 0.2 + 0.1j]))))
        code, out = run_cli(["kummer", "--tau", tau_file, "--input", str(inp)], capsys)
        assert code == 0
        payload = json.loads(out)
        coords = np.array(payload["coords_re"]) + 1j * np.array(payload["coords_im"])
        assert coords.shape == (4,)
        assert np.abs(coords).max() == pytest.approx(1.0)


class TestSecantCommands:
    def test_check_on_scenario_output(self, tau_file, tmp_path, fay, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(jsonio.config_to_json(fay.config)))
        out_path = tmp_path / "checked.json"
        code = main(
            ["secant-check", "--tau", tau_file, "--input", str(cfg_path), "--output", str(out_path)]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["residual"] <= 1e-7
        assert payload["alpha"] is not None

    def test_check_reports_the_secant_residual(self, tau_file, tmp_path, pm_g2):
        # the residual is secant_residual's value, not the coefficient fit's
        # own SVD ratio; at scenario seed 3 the two differ in the last bit
        cfg_path = tmp_path / "fay_r.json"
        assert main(["scenario-fay", "--tau", tau_file, "--seed", "3", "--output", str(cfg_path)]) == 0
        out_path = tmp_path / "checked_r.json"
        argv = ["secant-check", "--tau", tau_file, "--input", str(cfg_path), "--output", str(out_path)]
        assert main(argv) == 0
        payload = json.loads(out_path.read_text())
        cfg = jsonio.config_from_json(payload, pm_g2)
        assert payload["residual"] == kl.secant_residual(cfg)
        alpha = jsonio.point_from_json(payload["alpha"], 3)
        assert np.array_equal(alpha, kl.secant_coefficients(cfg))

    def test_check_round_trip(self, tau_file, tmp_path, pm_g2, fay):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(jsonio.config_to_json(fay.config)))
        out_path = tmp_path / "checked.json"
        main(["secant-check", "--tau", tau_file, "--input", str(cfg_path), "--output", str(out_path)])
        payload = json.loads(out_path.read_text())
        cfg = jsonio.config_from_json(payload, pm_g2, str(out_path))
        again = jsonio.config_to_json(cfg)
        # residual and alpha are report fields: the reader does not take them back
        assert again == dict(payload, residual=None, alpha=None)

    def test_check_failure_still_writes(self, tau_file, tmp_path, pm_g2, capsys):
        gen = np.random.default_rng(0)
        cfg = kl.SecantConfiguration(
            pm_g2,
            1,
            [gen.normal(size=2) * 0.3 + 0.1j * gen.normal(size=2) for _ in range(3)],
            np.zeros(2),
        )
        cfg_path = tmp_path / "bad_cfg.json"
        cfg_path.write_text(json.dumps(jsonio.config_to_json(cfg)))
        out_path = tmp_path / "bad_checked.json"
        code = main(
            ["secant-check", "--tau", tau_file, "--input", str(cfg_path), "--output", str(out_path)]
        )
        assert code == 2
        assert json.loads(out_path.read_text())["residual"] > 1e-3

    def test_propagate_emits_csv_table(self, tau_file, tmp_path, pm_g2, fay, divisor_points, capsys):
        t = kl.find_theta_divisor_point(pm_g2, 4242)
        zp = 0.5 * (t.z - divisor_points[0].z)
        inp = tmp_path / "prop.json"
        inp.write_text(
            json.dumps(
                {"config": jsonio.config_to_json(fay.config), "zeta_prime": jsonio.point_to_json(zp)}
            )
        )
        out_path = tmp_path / "prop_out.json"
        code = main(
            [
                "secant-propagate",
                "--tau",
                tau_file,
                "--input",
                str(inp),
                "--tol",
                "1e-7",
                "--output",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["best_residual"] <= 1e-7
        csv_lines = (tmp_path / "prop_out.json.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "lift,residual"
        assert len(csv_lines) == 17

    @staticmethod
    def non_secant_with_claims(pm):
        """A non-secant whose file claims residual 0 and coefficients [1, 2, 3]."""
        gen = np.random.default_rng(0)
        points = [gen.normal(size=2) * 0.3 + 0.1j * gen.normal(size=2) for _ in range(3)]
        payload = jsonio.config_to_json(kl.SecantConfiguration(pm, 1, points, np.zeros(2)))
        payload["residual"] = 0.0
        payload["alpha"] = jsonio.point_to_json([1.0, 2.0, 3.0])
        return payload

    def test_check_reports_no_alpha_it_did_not_fit(self, tau_file, tmp_path, pm_g2):
        cfg_path = tmp_path / "claims.json"
        cfg_path.write_text(json.dumps(self.non_secant_with_claims(pm_g2)))
        out_path = tmp_path / "claims_checked.json"
        argv = ["secant-check", "--tau", tau_file, "--input", str(cfg_path), "--output", str(out_path)]
        assert main(argv) == 2
        payload = json.loads(out_path.read_text())
        assert payload["residual"] > 1e-3
        assert payload["alpha"] is None

    def test_propagate_verifies_the_residual_itself(self, tau_file, tmp_path, pm_g2, capsys):
        inp = tmp_path / "claims_prop.json"
        inp.write_text(json.dumps({"config": self.non_secant_with_claims(pm_g2),
                                   "zeta_prime": jsonio.point_to_json(np.zeros(2))}))
        assert main(["secant-propagate", "--tau", tau_file, "--input", str(inp)]) == 1
        assert "not a verified secant" in capsys.readouterr().err

    def test_search_from_stored_zeta(self, tau_file, tmp_path, fay, capsys):
        cfg_path = tmp_path / "search_cfg.json"
        cfg_path.write_text(json.dumps(jsonio.config_to_json(fay.config)))
        code, out = run_cli(
            ["secant-search", "--tau", tau_file, "--input", str(cfg_path), "--tol", "1e-7"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] <= 1e-7
        assert "search" in payload

    def test_search_on_collision_is_exit_two(self, tau_file, tmp_path, pm_g2, fay, capsys):
        # a_2 = a_1 + 1 is the same torus point, so every zeta is a collision:
        # the search never leaves the plateau, yet the trivial zero it
        # returns has a residual far below --tol
        a = list(fay.config.points)
        a[1] = a[0] + 1.0
        cfg_path = tmp_path / "collision_cfg.json"
        cfg = kl.SecantConfiguration(pm_g2, 1, a, fay.config.zeta)
        cfg_path.write_text(json.dumps(jsonio.config_to_json(cfg)))
        code, out = run_cli(
            ["secant-search", "--tau", tau_file, "--input", str(cfg_path), "--tol", "1e-7"],
            capsys,
        )
        payload = json.loads(out)
        assert payload["residual"] <= 1e-7
        assert payload["search"]["converged"] is False
        assert code == 2

    def test_propagate_missing_zeta_prime_is_input_error(self, tau_file, tmp_path, fay, capsys):
        inp = tmp_path / "noprime.json"
        inp.write_text(json.dumps({"config": jsonio.config_to_json(fay.config)}))
        code, _ = run_cli(["secant-propagate", "--tau", tau_file, "--input", str(inp)], capsys)
        assert code == 1

    def test_propagate_flat_input_is_input_error(self, tau_file, tmp_path, fay, capsys):
        # the configuration's fields beside zeta_prime, with no "config" around them
        inp = tmp_path / "flat.json"
        inp.write_text(json.dumps(dict(jsonio.config_to_json(fay.config),
                                       zeta_prime=jsonio.point_to_json(np.zeros(2)))))
        assert main(["secant-propagate", "--tau", tau_file, "--input", str(inp)]) == 1
        assert "missing field 'config'" in capsys.readouterr().err

    def test_involution_zero_residual(self, tau_file, tmp_path, capsys):
        gen = np.random.default_rng(5)
        inp = tmp_path / "inv.json"
        inp.write_text(
            json.dumps(
                {
                    "points": [
                        jsonio.point_to_json(gen.normal(size=2) + 1j * gen.normal(size=2) * 0.4)
                        for _ in range(4)
                    ],
                    "zeta_prime": jsonio.point_to_json(gen.normal(size=2)),
                    "lift": [0, 1, 1, 0],
                }
            )
        )
        code, out = run_cli(["involution", "--tau", tau_file, "--input", str(inp)], capsys)
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-12

    @pytest.mark.parametrize("lift", [[0.5, 1, 0, 0], [[0, 1], [1]], [0, 1]])
    def test_involution_malformed_json_lift_is_input_error(self, tau_file, tmp_path, capsys, lift):
        # an integer cast truncated the first to [0, 1, 0, 0]; the second raised a bare
        # ValueError; the third is 2 bits where g = 2 needs 4
        inp = tmp_path / "inv3.json"
        inp.write_text(
            json.dumps(
                {
                    "points": [jsonio.point_to_json(np.zeros(2))] * 4,
                    "zeta_prime": jsonio.point_to_json(np.zeros(2)),
                    "lift": lift,
                }
            )
        )
        assert main(["involution", "--tau", tau_file, "--input", str(inp)]) == 1
        assert "each 0 or 1" in capsys.readouterr().err


class TestScenarioAndHierarchyCommands:
    def test_scenario_fay_then_check(self, tau_file, tmp_path, capsys):
        fay_path = tmp_path / "fay.json"
        code = main(
            ["scenario-fay", "--tau", tau_file, "--seed", "3", "--output", str(fay_path)]
        )
        assert code == 0
        payload = json.loads(fay_path.read_text())
        assert payload["residual"] <= 1e-7
        code = main(
            ["secant-check", "--tau", tau_file, "--input", str(fay_path), "--tol", "1e-7"]
        )
        capsys.readouterr()
        assert code == 0

    def test_scenario_degenerate_then_premise_and_run(self, tau_file, tmp_path, capsys):
        seed_path = tmp_path / "seed.json"
        code = main(
            ["scenario-degenerate", "--tau", tau_file, "--seed", "5", "--output", str(seed_path)]
        )
        assert code == 0
        seed_payload = json.loads(seed_path.read_text())
        assert seed_payload["tangency_residual"] <= 1e-6

        code, out = run_cli(
            ["premise-check", "--tau", tau_file, "--input", str(seed_path)], capsys
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

        run_path = tmp_path / "run.json"
        code = main(
            [
                "hierarchy-run",
                "--tau",
                tau_file,
                "--input",
                str(seed_path),
                "--order",
                "4",
                "--samples",
                "16",
                "--output",
                str(run_path),
            ]
        )
        assert code == 0
        state_payload = json.loads(run_path.read_text())
        assert len(state_payload["residuals"]) == 4
        assert max(state_payload["residuals"]) <= 1e-7
        csv_lines = (tmp_path / "run.json.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "order,residual"
        assert len(csv_lines) == 5

    def test_hierarchy_abort_is_exit_two(self, tau_file, tmp_path, capsys):
        seed_path = tmp_path / "bad_seed.json"
        gen = np.random.default_rng(6)
        seed_path.write_text(
            json.dumps(
                {
                    "m": 1,
                    "u": jsonio.point_to_json(gen.normal(size=2) * 0.3),
                    "b": [jsonio.point_to_json(gen.normal(size=2) * 0.3)],
                    "W1": jsonio.point_to_json(np.array([1.0, 0.5])),
                }
            )
        )
        out_path = tmp_path / "abort.json"
        code = main(
            ["hierarchy-run", "--tau", tau_file, "--input", str(seed_path), "--output", str(out_path)]
        )
        assert code == 2
        payload = json.loads(out_path.read_text())
        assert payload["residuals"][0] >= 1e-3

    def test_negative_sample_count_is_input_error(self, tau_file, tmp_path, capsys):
        seed_path = tmp_path / "neg_seed.json"
        seed_path.write_text(
            json.dumps(
                {
                    "m": 1,
                    "u": jsonio.point_to_json(np.array([0.2, 0.1j])),
                    "b": [jsonio.point_to_json(np.array([0.1, 0.3]))],
                    "W1": jsonio.point_to_json(np.array([1.0, 0.5])),
                }
            )
        )
        argv = ["hierarchy-run", "--tau", tau_file, "--input", str(seed_path), "--samples", "-3"]
        assert main(argv) == 1
        assert "-3" in capsys.readouterr().err

    def test_determinism(self, tau_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["scenario-fay", "--tau", tau_file, "--seed", "9", "--output", str(a)])
        main(["scenario-fay", "--tau", tau_file, "--seed", "9", "--output", str(b)])
        assert a.read_text() == b.read_text()


class TestMalformedInput:
    SEED = {"u": {"re": [0.2, 0.0], "im": [0.0, 0.1]}, "b": [{"re": [0.1, 0.3], "im": [0.0, 0.0]}],
            "W1": None}
    POINTS = {"points": [SEED["u"], SEED["b"][0], {"re": [0.3, 0.1], "im": [0.1, 0.0]}],
              "zeta": SEED["u"]}

    @pytest.mark.parametrize(
        "command, obj, message",
        [
            ("secant-check", {"m": "1", "points": [], "zeta": {}}, "field 'm' must be an integer"),
            ("hierarchy-run", dict(SEED, m="1"), "field 'm' must be an integer"),
            ("premise-check", dict(SEED, m=1, b=5), "field 'b' must be a list"),
            ("secant-search", {"m": 1, "points": {}, "zeta": {}}, "field 'points' must be a list"),
            ("secant-check", dict(POINTS, m=2), "expected 4 points, got 3"),
            ("secant-propagate", [1, 2], "expected a JSON object, got list"),
            ("involution", [1, 2], "expected a JSON object, got list"),
        ],
    )
    def test_is_input_error(self, tau_file, tmp_path, capsys, command, obj, message):
        inp = tmp_path / "malformed.json"
        inp.write_text(json.dumps(obj))
        assert main([command, "--tau", tau_file, "--input", str(inp)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("g", [2.0, True, "2"])
    def test_genus_must_be_an_integer(self, tau_file, tmp_path, capsys, g):
        bad_tau = tmp_path / "bad_tau.json"
        bad_tau.write_text(json.dumps(dict(jsonio.load_json(tau_file), g=g)))
        inp = tmp_path / "z.json"
        inp.write_text(json.dumps(self.SEED["u"]))
        assert main(["theta", "--tau", str(bad_tau), "--input", str(inp)]) == 1
        assert "field 'g' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, message",
        [(b"\xff\xfe{}", "not UTF-8 text"), (b"[" * 100_000 + b"]" * 100_000, "nested too deeply")],
        ids=["not-utf8", "nested-100000-deep"],
    )
    def test_unreadable_file_is_input_error(self, tau_file, tmp_path, capsys, content, message):
        inp = tmp_path / "unreadable.json"
        inp.write_bytes(content)
        assert main(["theta", "--tau", tau_file, "--input", str(inp)]) == 1
        err = capsys.readouterr().err
        assert str(inp) in err and message in err

    def test_premise_check_with_too_many_columns_is_input_error(self, tau_file, tmp_path, capsys):
        # m = 2 and no W1 adjoin both coordinate derivatives: 5 columns in 4 rows
        seed = dict(self.SEED, m=2, b=self.SEED["b"] * 2)
        inp = tmp_path / "wide_seed.json"
        inp.write_text(json.dumps(seed))
        assert main(["premise-check", "--tau", tau_file, "--input", str(inp)]) == 1
        assert "5 premise columns exceed" in capsys.readouterr().err


class TestLiftFailureReports:
    """A lift search that fails writes {"passed": false, "message"} and its whole table."""

    @staticmethod
    def check_report(tmp_path, argv, rows, label):
        out_path = tmp_path / "failed.json"
        assert main(argv + ["--output", str(out_path)]) == 2
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"passed", "message"}
        assert payload["passed"] is False and payload["message"]
        lines = (tmp_path / "failed.json.csv").read_text().splitlines()
        assert lines[0] == "lift,residual"
        assert len(lines) == rows + 1
        for line in lines[1:]:
            lift, residual = line.split(",")
            assert re.fullmatch(label, lift)
            assert float(residual) >= 0.0

    def test_scenario_fay(self, tau_file, tmp_path, monkeypatch):
        monkeypatch.setattr(kl.scenarios, "_FAY_TOL", 0.0)
        argv = ["scenario-fay", "--tau", tau_file, "--seed", "3"]
        self.check_report(tmp_path, argv, 256, r"[01]{4}\|[01]{4}")

    def test_scenario_degenerate(self, tau_file, tmp_path, monkeypatch):
        monkeypatch.setattr(kl.scenarios, "_TANGENCY_TOL", 0.0)
        argv = ["scenario-degenerate", "--tau", tau_file, "--seed", "5"]
        self.check_report(tmp_path, argv, 16, r"[01]{4}")

    def test_secant_propagate_off_family(self, tau_file, tmp_path, pm_g2, fay):
        # a random zeta' is off the secant family, so no lift passes
        gen = np.random.default_rng(59)
        zp = gen.uniform(-0.5, 0.5, 2) + 1j * gen.uniform(-0.3, 0.3, 2)
        inp = tmp_path / "off.json"
        inp.write_text(json.dumps({"config": jsonio.config_to_json(fay.config),
                                   "zeta_prime": jsonio.point_to_json(zp)}))
        argv = ["secant-propagate", "--tau", tau_file, "--input", str(inp), "--tol", "1e-7"]
        self.check_report(tmp_path, argv, 16, r"[01]{4}")


# the flags each subcommand's handler reads, written out independently of cli._COMMANDS
FLAGS_READ = {
    "theta": "--tau --input --eps --output",
    "kummer": "--tau --input --eps --output",
    "premise-check": "--tau --input --eps --output",
    "secant-check": "--tau --input --eps --tol --output",
    "secant-propagate": "--tau --input --eps --tol --output",
    "secant-search": "--tau --input --eps --tol --seed --output",
    "involution": "--tau --input --tol --output",
    "hierarchy-run": "--tau --input --eps --seed --samples --order --output",
    "scenario-fay": "--tau --eps --seed --output",
    "scenario-degenerate": "--tau --eps --seed --output",
}


def exit_code(args):
    """main's return value, or the code of the SystemExit that argparse raised."""
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


class TestParser:
    def test_unknown_flag_is_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["theta", "--frobnicate", "1"])
        assert err.value.code == 1

    def test_unknown_command_is_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    @pytest.mark.parametrize("command", sorted(FLAGS_READ))
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert listed == set(FLAGS_READ[command].split()) | {"--help"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["theta", "--order", "4"],
            ["involution", "--eps", "1e-12"],
            ["premise-check", "--tol", "1e-3"],
        ],
    )
    def test_unread_flag_is_input_error(self, tau_file, tmp_path, capsys, argv):
        inp = tmp_path / "any.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(2))))
        command, *rest = argv
        assert exit_code([command, "--tau", tau_file, "--input", str(inp), *rest]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "0"])
    def test_involution_tol_must_be_finite_and_positive(self, tau_file, tmp_path, capsys, tol):
        inp = tmp_path / "inv_tol.json"
        inp.write_text(json.dumps({"points": [jsonio.point_to_json(np.zeros(2))] * 4,
                                   "zeta_prime": jsonio.point_to_json(np.zeros(2))}))
        assert exit_code(["involution", "--tau", tau_file, "--input", str(inp), "--tol", tol]) == 1
        assert "--tol must be finite and above 0.0" in capsys.readouterr().err

    def test_missing_tau_is_input_error(self, tmp_path, capsys):
        inp = tmp_path / "z.json"
        inp.write_text(json.dumps(jsonio.point_to_json(np.zeros(2))))
        assert exit_code(["involution", "--input", str(inp)]) == 1
        assert "required: --tau" in capsys.readouterr().err

    def test_start_up_does_not_import_scipy(self):
        probe = (
            "import runpy, sys\n"
            "import kummerlab\n"
            "assert 'scipy' not in sys.modules, 'import kummerlab loaded scipy'\n"
            "sys.argv = ['kummerlab', '--help']\n"
            "try:\n"
            "    runpy.run_module('kummerlab', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "assert 'scipy' not in sys.modules, 'kummerlab --help loaded scipy'\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kummerlab", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "scenario-fay" in proc.stdout
