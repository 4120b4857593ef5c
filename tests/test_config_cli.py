"""Unit tests for YAML config parsing and the command-line front end."""

import inspect
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noncolliding
from noncolliding import ConfigError, parse_config, serialize_config, build_system, config
from noncolliding.cli import _row, main
from noncolliding.model import is_uniform

DYSON_YAML = """
system:
  d: 3
  gamma:
    uniform: 4.0
  drift:
    kind: zero
  diffusion:
    kind: constant_matrix
    matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
  x0:
    linspace: [-1.0, 1.0]
run:
  scheme: semi_implicit
  T: 1.0
  n: 16
  levels: [8, 16, 32]
  ref_level: 128
  paths: 20
  seed: 7
"""

NN_YAML = DYSON_YAML.replace("uniform: 4.0", "tridiagonal: 8.0").replace(
    "x0:\n    linspace: [-1.0, 1.0]", "x0: [-1.0, 0.0, 1.0]"
)

OU_YAML = """
system:
  d: 4
  gamma:
    uniform: 0.3
  drift:
    kind: ornstein_uhlenbeck
    theta: 0.7
    mu: [-1.0, -0.3, 0.3, 1.0]
  diffusion:
    kind: diagonal_bounded
    s0: 0.8
    s1: 0.3
  x0:
    linspace: [-0.6, 0.6]
run:
  T: 1.0
  n: 8
  paths: 12
  seed: 11
"""


class TestParse:
    def test_minimal_dyson(self):
        cfg = parse_config(DYSON_YAML)
        assert cfg.system.d == 3
        assert cfg.system.gamma_kind == "uniform"
        assert cfg.run.seed == 7
        assert cfg.output.format == "csv"

    def test_non_dyadic_levels(self):
        bad = DYSON_YAML.replace("[8, 16, 32]", "[3]")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "run.levels" in str(exc.value)
        assert "powers of 2" in str(exc.value)

    def test_missing_seed(self):
        bad = DYSON_YAML.replace("  seed: 7\n", "")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "run.seed" in str(exc.value)

    def test_ref_level_ratio(self):
        bad = DYSON_YAML.replace("ref_level: 128", "ref_level: 64")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "run.ref_level" in str(exc.value)

    def test_syntax_error_carries_line(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("system:\n  d: [unclosed\n")
        assert "line" in str(exc.value)

    def test_unknown_block(self):
        with pytest.raises(ConfigError):
            parse_config(DYSON_YAML + "\nextras:\n  x: 1\n")

    def test_unordered_x0(self):
        bad = DYSON_YAML.replace("linspace: [-1.0, 1.0]", "linspace: [1.0, -1.0]")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        assert "system.x0" in str(exc.value)

    def test_round_trip(self):
        cfg = parse_config(DYSON_YAML)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_every_family_parameter_has_a_parser(self):
        # a new drift or diffusion family is one DRIFTS or DIFFUSIONS entry
        for kinds in (config.DRIFTS, config.DIFFUSIONS):
            for constructor in kinds.values():
                assert set(inspect.signature(constructor).parameters) <= set(config.PARAMS)

    def test_readme_schema_parses(self):
        # the documented schema must not drift from the parser
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        text = re.search(r"### Config format\n+```yaml\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(text)
        assert build_system(cfg.system).d == cfg.system.d == 3
        assert cfg.output.path == "out.csv"

    def test_build_system(self):
        sys_ = build_system(parse_config(DYSON_YAML).system)
        assert sys_.d == 3
        assert is_uniform(sys_.gamma) and sys_.gamma[0, 1] == 4.0
        assert np.allclose(sys_.x0, [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "old, new, attribute, want",
        [
            ("kind: zero", "kind: constant\n    c: [0.1, 0.2, 0.3]", "drift.c", [0.1, 0.2, 0.3]),
            ("kind: zero", "kind: ornstein_uhlenbeck\n    theta: 0.5\n    mu: [-1, 0, 1]", "drift.mu", [-1, 0, 1]),
            ("kind: zero", "kind: bounded_smooth\n    beta: 0.7", "drift.beta", 0.7),
            ("kind: constant_matrix\n    matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
             "kind: diagonal_bounded\n    s0: 0.8", "diffusion.s1", 0.0),
            ("uniform: 4.0", "matrix: [[0, 2, 1], [2, 0, 3], [1, 3, 0]]", "gamma", [[0, 2, 1], [2, 0, 3], [1, 3, 0]]),
        ],
        ids=["constant", "ornstein_uhlenbeck", "bounded_smooth", "diagonal_bounded", "gamma_matrix"],
    )
    def test_every_family_builds_from_its_keys(self, old, new, attribute, want):
        sys_ = build_system(parse_config(DYSON_YAML.replace(old, new)).system)
        value = sys_
        for name in attribute.split("."):
            value = getattr(value, name)
        assert np.array_equal(value, want)

    @pytest.mark.parametrize(
        "old, new, key",
        [("T: 1.0", "T: .nan", "run.T"), ("T: 1.0", "T: .inf", "run.T"),
         ("uniform: 4.0", "uniform: .inf", "system.gamma.uniform"),
         ("linspace: [-1.0, 1.0]", "linspace: [-.inf, 1.0]", "system.x0.linspace")],
        ids=["T_nan", "T_inf", "gamma_inf", "x0_inf"],
    )
    def test_non_finite_number_names_its_key(self, old, new, key):
        with pytest.raises(ConfigError) as exc:
            parse_config(DYSON_YAML.replace(old, new))
        assert str(exc.value) == f"{key}: must be finite"

    @pytest.mark.parametrize(
        "old, new, key, message",
        [("ref_level: 128", "ref_level: 96", "run.ref_level", "ref_level must be a power of 2"),
         ("ref_level: 128", "ref_level: 16", "run.levels", "all levels must divide ref_level")],
        ids=["ref_not_dyadic", "level_above_ref"],
    )
    def test_level_rules_name_their_key(self, old, new, key, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(DYSON_YAML.replace(old, new))
        assert str(exc.value) == f"{key}: {message}"


@pytest.fixture
def dyson_config(tmp_path):
    path = tmp_path / "dyson.yaml"
    path.write_text(DYSON_YAML)
    return str(path)


class TestCli:
    def test_solve_closed_form(self, capsys):
        code = main(["solve", "--a", "0,3", "--c-uniform", "2"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        row = out[1].split(",")
        assert float(row[0]) == pytest.approx(-0.5, abs=1e-10)
        assert float(row[1]) == pytest.approx(3.5, abs=1e-10)

    def test_solve_requires_one_c(self, capsys):
        code = main(["solve", "--a", "0,1"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, key",
        [(["--c-uniform", "2", "--tol", "nan"], "tol"), (["--c-uniform", "2", "--tol", "inf"], "tol"),
         (["--c-uniform", "inf"], "--c-*"), (["--c-tridiagonal", "1,nan"], "--c-tridiagonal")],
        ids=["tol_nan", "tol_inf", "c_inf", "c_nan"],
    )
    def test_solve_rejects_non_finite_input(self, argv, key, capsys):
        # an unchecked NaN tolerance used to report the initial guess as converged
        assert main(["solve", "--a", "0,1,3", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f'error,validation,"{key}') and "finite" in err

    def test_solve_blames_a_single_offset_on_a(self, capsys):
        assert main(["solve", "--a", "1", "--c-uniform", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith('error,validation,"--a: need at least two particles')

    @pytest.mark.parametrize("a", ["0,inf,3", "nan,1,3"])
    def test_solve_offsets_must_be_finite(self, a, capsys):
        assert main(["solve", "--a", a, "--c-uniform", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith('error,validation,"--a: every entry must be finite')

    def test_solve_tridiagonal_one_or_per_pair_values(self, capsys):
        assert main(["solve", "--a", "0,1,3", "--c-tridiagonal", "0.5"]) == 0
        one = capsys.readouterr().out
        assert main(["solve", "--a", "0,1,3", "--c-tridiagonal", "0.5,0.5"]) == 0
        assert capsys.readouterr().out == one
        assert main(["solve", "--a", "0,1,3", "--c-tridiagonal", "0.5,0.5,0.5"]) == 2
        assert "need 2 coefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collide_memory_holds_one_chunk(self, workers, tmp_path, monkeypatch):
        # the semi-implicit control runs chunk by chunk, so 4x the paths
        # needs no more memory
        from noncolliding import scheme
        from noncolliding.analysis import CHUNK

        monkeypatch.setattr(scheme, "_cpus", lambda: workers)

        def peak(paths):
            cfg = tmp_path / f"collide{paths}.yaml"
            cfg.write_text(DYSON_YAML.replace("n: 16", "n: 256").replace("paths: 20", f"paths: {paths}"))
            tracemalloc.start()
            try:
                assert main(["collide", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * CHUNK) <= 1.2 * peak(CHUNK)

    def test_simulate_memory_is_about_the_csv(self, tmp_path):
        # the rows of a path are one string and the lines are written without
        # a joined copy: the peak is the CSV plus the states, not 3.8 CSVs
        cfg = tmp_path / "readme.yaml"
        cfg.write_text(DYSON_YAML.replace("n: 16", "n: 1024").replace("paths: 20", "paths: 50"))
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 4_000_000
        assert peak < 2.5 * out.stat().st_size

    def test_global_flags_both_positions(self, dyson_config, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["--config", dyson_config, "simulate", "--paths", "2", "--out", str(out1)]) == 0
        assert main(["simulate", "--paths", "2", "--config", dyson_config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_byte_identical_reruns(self, dyson_config, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["converge", "--config", dyson_config]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, dyson_config, capsys):
        assert main(["simulate", "--config", dyson_config, "--paths", "1"]) == 0
        base = capsys.readouterr().out
        assert main(["simulate", "--config", dyson_config, "--paths", "1", "--seed", "8"]) == 0
        other = capsys.readouterr().out
        assert base != other

    def test_simulate_columns(self, dyson_config, capsys):
        assert main(["simulate", "--config", dyson_config, "--paths", "1", "--n", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "path_id,k,t,x_1,x_2,x_3,min_gap"
        assert len(out) == 1 + 5  # header + n+1 rows

    @pytest.mark.parametrize("which", ["semi_implicit", "explicit"])
    def test_simulate_rows_match_scalar_paths(self, which, tmp_path):
        # the batched CLI run keeps each replication's replication_seed stream
        from noncolliding import scheme

        path = tmp_path / "ou.yaml"
        path.write_text(OU_YAML)
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(path), "--scheme", which, "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1).reshape(12, 9, 8)
        system = build_system(parse_config(OU_YAML).system)
        grid = scheme.TimeGrid(1.0, 8)
        exited = 0
        for rep in range(12):
            bm = scheme.generate_brownian(scheme.replication_seed(11, rep), 4, 1.0, 8)
            result = scheme.simulate(system, grid, bm, which)
            exited += result.exited_chamber
            assert np.array_equal(rows[rep, :, 3:7], result.states)
            assert np.array_equal(rows[rep, :, 7], np.diff(result.states, axis=1).min(axis=1))
        assert (exited > 0) == (which == "explicit")

    def test_check_pass_and_fail_codes(self, dyson_config, tmp_path, capsys):
        # gamma = 4: ratio = 4, p = 3 passes
        assert main(["check", "--config", dyson_config, "--p", "3"]) == 0
        capsys.readouterr()
        # gamma = 1: ratio = 1 < 2 -> condition-failed exit code
        weak = tmp_path / "weak.yaml"
        weak.write_text(DYSON_YAML.replace("uniform: 4.0", "uniform: 1.0"))
        assert main(["check", "--config", str(weak), "--p", "1"]) == 1
        out = capsys.readouterr().out
        assert "false" in out
        # tridiagonal gamma = 8 with an explicit x0: the nearest-neighbour condition holds
        nn = tmp_path / "nn.yaml"
        nn.write_text(NN_YAML)
        assert main(["check", "--config", str(nn), "--p", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            '"gamma/(2*sigma_sup_sq) >= (p+1)/(2-chi)",4,2.702414383919316,true'
        )

    @pytest.mark.parametrize(
        "x0, message", [("[-1.0, 1.0]", "must have 3 entries"), ("[-1.0, 1.0, 0.0]", "must be strictly increasing")]
    )
    def test_explicit_x0_is_checked(self, tmp_path, x0, message, capsys):
        cfg = tmp_path / "x0.yaml"
        cfg.write_text(NN_YAML.replace("[-1.0, 0.0, 1.0]", x0))
        assert main(["check", "--config", str(cfg), "--p", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f'error,validation,"system.x0: {message}')

    @pytest.mark.parametrize("chi", ["-5", "0", "2", "nan"])
    def test_check_chi_must_lie_below_two(self, tmp_path, chi, capsys):
        nn = tmp_path / "nn.yaml"
        nn.write_text(DYSON_YAML.replace("uniform: 4.0", "tridiagonal: 8.0"))
        assert main(["check", "--config", str(nn), "--p", "1", "--chi", chi]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith('error,validation,"--chi: must lie in (0, 2)')

    def test_check_refuses_a_p_beyond_chi_bar_accuracy(self, tmp_path, capsys):
        # at p = 1e16 the computed chi was exactly 2, so the check was refused as not applicable
        nn = tmp_path / "nn.yaml"
        nn.write_text(NN_YAML)
        assert main(["check", "--config", str(nn), "--p", "1e16"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith('error,validation,"p must be below 1e4 for a chi_bar accurate to 1e-12, got 1e+16')

    def test_check_chi_is_refused_for_uniform_gamma(self, dyson_config, capsys):
        # the full-interaction condition has no chi; one given was ignored before
        assert main(["check", "--config", dyson_config, "--p", "3", "--chi", "1.9"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith('error,validation,"--chi: ')

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("paths: 20", "pahts: 20", "run.pahts"),
            ("seed: 7\n", "seed: 7\noutput:\n  precison: 2\n", "output.precison"),
            ("kind: constant_matrix\n    matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
             "kind: diagonal_bounded\n    s0: 1.0\n    sl: 1.0", "system.diffusion.sl"),
            ("kind: zero", "kind: zero\n    theta: 0.5", "system.drift.theta"),
            ("  d: 3\n", "  d: 3\n  dd: 4\n", "system.dd"),
        ],
        ids=["run", "output", "diffusion", "drift", "system"],
    )
    def test_misspelt_key_is_refused(self, tmp_path, old, new, key, capsys):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(DYSON_YAML.replace(old, new))
        assert main(["simulate", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f'error,validation,"{key}: unknown key; expected one of (')

    def test_misspelt_s1_does_not_pass_check(self, tmp_path, capsys):
        # without s1 the diffusion bound is smaller, and the condition holds
        bounded = DYSON_YAML.replace(
            "kind: constant_matrix\n    matrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
            "kind: diagonal_bounded\n    s0: 1.0\n    s1: 1.0",
        )
        for text, code in ((bounded, 1), (bounded.replace("s1:", "sl:"), 2)):
            cfg = tmp_path / "check.yaml"
            cfg.write_text(text)
            assert main(["check", "--config", str(cfg), "--p", "1.1"]) == code
        assert capsys.readouterr().err.startswith('error,validation,"system.diffusion.sl: unknown key')

    def test_output_path_is_written_and_out_wins(self, tmp_path, monkeypatch, capsys):
        # output.path is relative to the current directory, as --out is
        (tmp_path / "configs").mkdir()
        cfg = tmp_path / "configs" / "dyson.yaml"
        cfg.write_text(DYSON_YAML + "output:\n  path: from_config.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == ""
        written = (tmp_path / "from_config.csv").read_text()
        assert written.startswith("path_id,k,t,x_1,")
        (tmp_path / "from_config.csv").unlink()
        assert main(["simulate", "--config", str(cfg), "--out", "from_flag.csv"]) == 0
        assert (tmp_path / "from_flag.csv").read_text() == written
        assert not (tmp_path / "from_config.csv").exists()
        cfg.write_text(DYSON_YAML + "output:\n  path: missing/dir/out.csv\n")
        assert main(["simulate", "--config", str(cfg)]) == 4

    def test_missing_config_file_is_io_error(self):
        assert main(["simulate", "--config", "/nonexistent/x.yaml"]) == 4

    def test_negative_paths_is_validation_error(self, dyson_config):
        assert main(["simulate", "--config", dyson_config, "--paths", "-1"]) == 2

    @pytest.mark.parametrize("flag, value", [("--paths", "0"), ("--n", "0"), ("--n", "12")])
    def test_simulate_override_is_validated(self, dyson_config, flag, value, capsys):
        # a zero override is an override, not a missing one
        assert main(["simulate", "--config", dyson_config, flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f'error,validation,"{flag}: ')

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["moments", "--times", "0"], "--times"),
            (["simulate", "--seed", "-3"], "--seed"),
            (["inequalities", "--kind", "full", "--d", "3", "--count", "-5"], "--count"),
            (["inequalities", "--kind", "full", "--d", "3", "--sweep-seed", "-1"], "--sweep-seed"),
            (["inequalities", "--kind", "nn", "--d", "3", "--p", "-1"], "--p"),
            (["inequalities", "--kind", "nn", "--d", "3", "--p", "nan"], "--p"),
            (["inequalities", "--kind", "full", "--d", "3", "--p", "inf"], "--p"),
            (["chi-bar", "--d", "3", "--p", "-1"], "--p"),
            (["check", "--p", "nan"], "--p"),
            (["check", "--p", "0.5"], "--p"),
        ],
        ids=["times", "seed", "count", "sweep_seed", "nn_p_negative", "nn_p_nan", "full_p_inf", "chi_bar_p",
             "check_p_nan", "check_p_below_one"],
    )
    def test_flag_out_of_range_names_the_flag(self, dyson_config, argv, flag, capsys):
        assert main(argv + ["--config", dyson_config]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f'error,validation,"{flag}: must be >= ')

    @pytest.mark.parametrize(
        "argv", [["chi-bar"], ["inequalities", "--kind", "nn"]], ids=["chi_bar", "inequalities_nn"]
    )
    def test_p_that_overflows_the_chi_bar_seed_key_is_validation_error(self, argv, capsys):
        # p = 1e308 is far above chi_bar's bound of 1e4, which both commands meet first
        assert main(argv + ["--d", "3", "--p", "1e308"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith('error,validation,"p must be below ')

    def test_full_sweep_with_sides_that_are_not_finite_is_validation_error(self, capsys):
        assert main(["inequalities", "--kind", "full", "--d", "3", "--p", "1e308"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith('error,validation,"p = 1e+308 is too large for a sweep')

    @pytest.mark.parametrize("c", ["[1.0]", "[1.0, 2.0]"], ids=["one_value", "two_values"])
    def test_drift_of_wrong_length_is_validation_error(self, tmp_path, c, capsys):
        # a constant drift is not broadcast to the particles
        cfg = tmp_path / "constant.yaml"
        cfg.write_text(DYSON_YAML.replace("kind: zero", f"kind: constant\n    c: {c}"))
        assert main(["simulate", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith('error,validation,"system: drift must give a vector of length 3')

    def test_invalid_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("system:\n  d: 1\n")
        assert main(["simulate", "--config", str(bad)]) == 2

    def test_subcommand_without_config_is_validation_error(self):
        assert main(["converge"]) == 2

    def test_inequalities_full(self, capsys):
        assert main(["inequalities", "--kind", "full", "--d", "4", "--p", "1", "--count", "2000"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "kind,d,p,count,chi,violations"
        assert out[1].endswith(",0")

    def test_chi_bar_has_no_resolution_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["chi-bar", "--d", "3", "--resolution", "4"])

    def test_chi_bar_output(self, capsys):
        assert main(["chi-bar", "--d", "3", "--p", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "d,p,chi"
        assert float(out[1].split(",")[2]) == pytest.approx(np.sqrt(2.0), abs=1e-3)

    def test_nonconvergence_exit_code(self, capsys):
        # a huge scale with an impossible tolerance budget cannot converge
        code = main(["solve", "--a", "0,1,50", "--c-uniform", "2", "--method", "newton", "--tol", "1e-300"])
        assert code == 3

    def test_roundoff_limited_solve_succeeds(self, capsys):
        # the exact gap, 2e-10, spans 90 rounding units of |a| = 1e4; one ulp
        # moves c / gap by about 22, so the printed residual is 2.2, above tol
        assert main(["solve", "--a", "0,-1e4", "--c-uniform", "1e-6"]) == 0
        xi = [float(v) for v in capsys.readouterr().out.splitlines()[1].split(",")[:2]]
        assert xi[1] - xi[0] == pytest.approx(2e-10, rel=0.05)


def run_cli(*argv):
    """`python -m noncolliding` in a fresh interpreter: (exit code, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(noncolliding.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "noncolliding", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stderr


def per_value_row(values, precision):
    """The formatter `_row` must agree with: text and Python ints (bools
    too) as str gives them, every other value as float(v) to precision
    significant digits."""
    number = f"%.{precision}g"
    return ",".join(v if isinstance(v, str) else str(v) if isinstance(v, int) else number % float(v) for v in values)


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.5e-310, 1e308, -1e308]),
)
CELLS = st.one_of(
    st.text(max_size=6),
    st.integers(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    FLOATS.map(np.float64),
    FLOATS,
)


@pytest.mark.parametrize("precision", range(1, 18))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(values=st.lists(CELLS, max_size=10))
def test_row_formats_each_value_as_the_per_value_rule(precision, values):
    assert _row(values, precision) == per_value_row(values, precision)


def test_cli_module_runs_as_main():
    # `python -m noncolliding.cli` is the same front end as `python -m noncolliding`
    env = dict(os.environ, PYTHONPATH=str(Path(noncolliding.__file__).parents[1]))
    package, module = (
        subprocess.run([sys.executable, "-m", name, "chi-bar", "--d", "3"], capture_output=True, text=True, env=env)
        for name in ("noncolliding", "noncolliding.cli")
    )
    assert package.stdout.startswith("d,p,chi\n3,0,")
    assert (module.returncode, module.stdout) == (package.returncode, package.stdout)


class TestLibraryErrors:
    def test_non_dyadic_step_count_is_validation_error(self, tmp_path):
        cfg = tmp_path / "n100.yaml"
        cfg.write_text(DYSON_YAML.replace("n: 16", "n: 100"))
        code, err = run_cli("simulate", "--config", str(cfg))
        assert code == 2
        assert err.startswith('error,validation,"run.n: ') and "power of 2" in err
        assert "Traceback" not in err

    def test_unrepresentable_solution_is_nonconvergence(self):
        # the exact gap, 2e-12, is below one ulp of |xi| ~ 5e7: no ordered
        # double-precision solution exists
        code, err = run_cli("solve", "--a", "0,-1e8", "--c-uniform", "1e-4")
        assert code == 3
        assert err.startswith("error,nonconvergence,")
        assert "the solution's gap is below the spacing of doubles at this scale" in err
        assert "Traceback" not in err
