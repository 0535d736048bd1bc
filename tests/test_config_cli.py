"""Config round trips, CLI subcommands, artifacts, exit codes, sweeps."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import per_value_csv

import epnozzle
from epnozzle import InputError, background_profile, parse_config, serialize_config
from epnozzle.cli import build_problem, main, run, sweep
from epnozzle.config import _KEYMAP, RunConfig, config_from_mapping, load_config, with_overrides
from epnozzle.options import SolverOptions

BASE_CONFIG = """
# standard almost-sonic window, tiny single-mode data
gas.gamma = 3.0
gas.zeta0 = 2.0
gas.J = 1.0
gas.S0 = 0.3333333333333333
background.u0 = 0.9
window.kappaL = 1.1
background.resolution = 301
grid.n_x1 = 101
grid.m = 4
boundary.sigma = 5e-05
boundary.s_modes = 1:1.0
boundary.e_modes = 1:1.0
boundary.w_modes = 1:1.0
tol.outer = 1e-09
tol.eps = 1e-09
flags.override_certificate = true
"""


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
MODES = st.lists(st.tuples(st.integers(0, 64), FLOATS), max_size=4).map(tuple)
SINE_MODES = st.lists(st.tuples(st.integers(1, 64), FLOATS), max_size=4).map(tuple)
# valid RunConfigs: every key drawn, the solver options within the solver's rules and the
# window placed in one of its three valid ways (u0 or kappa0 with L or kappaL, or d alone)
CONFIGS = st.tuples(
    st.fixed_dictionaries({
        "gamma": FLOATS, "zeta0": FLOATS, "J": FLOATS, "S0": FLOATS, "E0": st.none() | FLOATS,
        "resolution": st.integers(2, 10 ** 6), "n_x1": st.integers(9, 10 ** 4), "m": st.integers(0, 64),
        "sigma": FLOATS, "s_modes": MODES, "e_modes": MODES, "w_modes": SINE_MODES,
        "tol_eps": st.floats(0, allow_infinity=False), "tol_outer": st.floats(0, allow_infinity=False),
        "theta": st.floats(0, 1, exclude_min=True),
        "eps0": st.floats(0, allow_infinity=False, exclude_min=True),
        "eps_cap": st.integers(0, 100), "max_outer": st.integers(1, 1000),
        "sigma_cap": st.none() | st.floats(0, allow_infinity=False, exclude_min=True),
        "out_dir": st.text("abcxyz_-./0123456789", min_size=1, max_size=12),
        "override_certificate": st.booleans(), "emit_fields": st.booleans(), "emit_traces": st.booleans(),
    }),
    st.one_of(
        st.fixed_dictionaries({"d": FLOATS}),
        st.tuples(st.sampled_from(["u0", "kappa0"]), st.sampled_from(["L", "kappaL"]), FLOATS, FLOATS).map(
            lambda t: {t[0]: t[2], t[1]: t[3]}
        ),
    ),
).map(lambda parts: RunConfig(**parts[0], **parts[1]))


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


def read_json_artifact(path: Path):
    """The JSON artifact at ``path``, whose text must be its own 2-space-indented dump and one
    trailing newline."""
    text = path.read_text()
    value = json.loads(text)
    assert text == json.dumps(value, indent=2) + "\n", path
    return value


def assert_float_tables_per_value(out: Path) -> int:
    """Every float CSV under ``out`` is per-value ``%.17g`` of its own cells (the text round-trips
    through float); returns how many were checked.  ``sweep.csv`` holds words and is skipped."""
    checked = 0
    for path in sorted(out.rglob("*.csv")):
        if path.name == "sweep.csv":
            continue
        header, *lines = path.read_text().splitlines()
        assert path.read_text() == per_value_csv(header, [[float(cell) for cell in line.split(",")]
                                                          for line in lines]), path
        checked += 1
    return checked


class TestConfig:
    def test_round_trip_identity(self):
        cfg = parse_config(BASE_CONFIG)
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    @settings(max_examples=100)
    @given(cfg=CONFIGS)
    def test_round_trip_property(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg

    def test_json_alternative(self):
        cfg = parse_config(BASE_CONFIG)
        as_json = json.dumps(
            {
                "gas.gamma": 3.0,
                "gas.zeta0": 2.0,
                "gas.J": 1.0,
                "gas.S0": 0.3333333333333333,
                "background.u0": 0.9,
                "window.kappaL": 1.1,
                "background.resolution": 301,
                "grid.n_x1": 101,
                "grid.m": 4,
                "boundary.sigma": 5e-05,
                "boundary.s_modes": [[1, 1.0]],
                "boundary.e_modes": [[1, 1.0]],
                "boundary.w_modes": [[1, 1.0]],
                "tol.outer": 1e-09,
                "tol.eps": 1e-09,
                "flags.override_certificate": True,
            }
        )
        assert parse_config(as_json) == cfg

    def test_readme_ini_block_parses(self):
        # README's example carries trailing comments after its values
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert " # " in block
        cfg = parse_config(block)
        assert (cfg.u0, cfg.kappaL, cfg.n_x1, cfg.m, cfg.sigma) == (0.9, 1.1, 401, 16, 1e-4)
        assert cfg.s_modes == cfg.e_modes == cfg.w_modes == ((1, 1.0),)
        assert (cfg.tol_outer, cfg.out_dir, cfg.override_certificate) == (1e-9, "out", True)

    def test_solver_option_defaults_have_one_source(self):
        # the config fields and the library keywords default to the SolverOptions fields
        defaults = vars(SolverOptions())
        assert RunConfig().solver_options() == SolverOptions()
        keywords = inspect.signature(epnozzle.fixed_point_solve).parameters
        assert {name: keywords[name].default for name in defaults} == defaults
        keywords = inspect.signature(epnozzle.vanishing_viscosity).parameters
        assert [keywords[name].default for name in ("eps0", "tol_eps", "cap")] == [0.1, 1e-6, 20]

    def test_solver_keys_map_one_to_one_onto_solver_options(self):
        # each key of the tol, damping and solver sections moves exactly one
        # SolverOptions field, and every field has its key
        values = {"tol.outer": "2e-08", "tol.eps": "3e-07", "damping.theta": "0.5", "solver.eps0": "0.05",
                  "solver.eps_cap": "7", "solver.max_outer": "9", "solver.sigma_cap": "0.001"}
        assert {key for key in _KEYMAP if key.split(".")[0] in ("tol", "damping", "solver")} == set(values)
        base = vars(parse_config(BASE_CONFIG).solver_options())
        moved = []
        for key, value in values.items():
            options = vars(parse_config(BASE_CONFIG + f"{key} = {value}\n").solver_options())
            changed = [name for name in options if options[name] != base[name]]
            assert len(changed) == 1, (key, changed)
            moved += changed
        assert sorted(moved) == sorted(base)

    def test_comment_needs_leading_whitespace(self):
        cfg = parse_config(BASE_CONFIG + "output.dir = run#1\t# the run's folder\n")
        assert cfg.out_dir == "run#1"

    @pytest.mark.parametrize(
        "line, key",
        [("grid.n_x1 = many", "grid.n_x1"), ("gas.J = 1.0#x", "gas.J"),
         ("boundary.s_modes = 1-1.0", "boundary.s_modes"), ("boundary.w_modes = 1:a", "boundary.w_modes"),
         ("flags.emit_fields = maybe", "flags.emit_fields")],
        ids=["non_numeric", "comment_without_space", "mode_without_colon", "mode_coefficient", "boolean"],
    )
    def test_unreadable_value_names_key(self, line, key):
        with pytest.raises(InputError, match=f"config key {key}: cannot read '{line.split(' = ')[1]}'"):
            parse_config(BASE_CONFIG + line + "\n")

    @pytest.mark.parametrize("value", [None, "x", [[1]], [[1, "a"]], 3], ids=str)
    def test_unreadable_json_modes_rejected(self, value):
        with pytest.raises(InputError, match="config key boundary.e_modes"):
            config_from_mapping({"gas.gamma": 3.0, "gas.zeta0": 2.0, "gas.J": 1.0, "gas.S0": 0.3,
                                 "background.u0": 0.9, "domain.L": 0.1, "boundary.e_modes": value})

    MINIMAL = {"gas.gamma": 3.0, "gas.zeta0": 2.0, "gas.J": 1.0, "gas.S0": 0.3,
               "background.u0": 0.9, "domain.L": 0.1}

    @pytest.mark.parametrize("value", [101, "101", 101.0], ids=repr)
    def test_integer_key_reads_integral_values(self, value):
        cfg = config_from_mapping({**self.MINIMAL, "grid.n_x1": value})
        assert cfg.n_x1 == 101 and type(cfg.n_x1) is int

    @pytest.mark.parametrize(
        "key, value",
        [("grid.n_x1", 101.7), ("grid.n_x1", True), ("solver.eps_cap", True), ("grid.m", False),
         ("solver.max_outer", float("inf")), ("background.resolution", float("nan")),
         ("boundary.s_modes", [[1.5, 1.0]]), ("boundary.s_modes", [[True, 1.0]])],
        ids=repr,
    )
    def test_integer_key_rejects_bool_and_fraction(self, key, value):
        with pytest.raises(InputError, match=f"config key {key}: cannot read"):
            config_from_mapping({**self.MINIMAL, key: value})

    def test_unknown_key_rejected(self):
        with pytest.raises(InputError):
            parse_config(BASE_CONFIG + "\nnozzle.shape = bell\n")

    def test_exactly_one_inlet_spec(self):
        with pytest.raises(InputError):
            parse_config(BASE_CONFIG + "\nwindow.kappa0 = 0.9\n")

    def test_window_d_excludes_others(self):
        bad = BASE_CONFIG + "\nwindow.d = 0.1\n"
        with pytest.raises(InputError):
            parse_config(bad)

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-inf"])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(InputError, match="boundary.sigma"):
            parse_config(BASE_CONFIG.replace("boundary.sigma = 5e-05", f"boundary.sigma = {sigma}"))
        with pytest.raises(InputError, match="boundary.sigma"):
            with_overrides(parse_config(BASE_CONFIG), sigma=float(sigma))

    def test_missing_gas_key_rejected(self):
        text = "\n".join(
            line for line in BASE_CONFIG.splitlines() if not line.startswith("gas.gamma")
        )
        with pytest.raises(InputError):
            parse_config(text)


class TestRunPipeline:
    @pytest.fixture(scope="class")
    def run_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("run_out")
        cfg = parse_config(BASE_CONFIG)
        outcome = run(cfg, out)
        return out, outcome

    def test_artifacts_exist(self, run_dir):
        out, _ = run_dir
        for name in ("background.csv", "sonic_interface.csv", "summary.json", "convergence.jsonl"):
            assert (out / name).exists()
        for field in ("psi", "phi", "Psi", "T", "rho", "u1", "u2", "M"):
            assert (out / "fields" / f"{field}.csv").exists()

    def test_summary_contents(self, run_dir):
        out, outcome = run_dir
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["iterations"] == outcome.iterations
        assert summary["sup_gs_minus_ls"] == outcome.sup_gs_minus_ls
        assert "norm_margins" in summary and "residuals" in summary
        assert summary["certificate"]["certified"] is False  # J = 1 is uncertified

    def test_convergence_trace_schema(self, run_dir):
        out, outcome = run_dir
        lines = (out / "convergence.jsonl").read_text().splitlines()
        assert lines
        entry = json.loads(lines[0])
        assert set(entry) == {"epsilon", "h1_diff", "sup_diff", "iterations"}
        assert lines == [json.dumps({k: e[k] for k in ("epsilon", "h1_diff", "sup_diff", "iterations")})
                         for e in outcome.eps_trace]

    def test_csv_headers_and_precision(self, run_dir):
        out, _ = run_dir
        head = (out / "sonic_interface.csv").read_text().splitlines()
        assert head[0] == "x2,g_s"
        value = head[1].split(",")[1]
        assert len(value) >= 17  # 17 significant digits requested

    def test_zero_perturbation_config(self, tmp_path):
        text = BASE_CONFIG.replace("boundary.sigma = 5e-05", "boundary.sigma = 0.0")
        cfg = parse_config(text)
        out = tmp_path / "zero"
        run(cfg, out)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["sup_gs_minus_ls"] <= 1e-8

    def test_float_tables_are_per_value_formatting(self, run_dir):
        out, _ = run_dir
        assert assert_float_tables_per_value(out) == 10  # background, sonic interface, eight fields

    def test_deterministic_rerun(self, run_dir, tmp_path):
        out, _ = run_dir
        cfg = parse_config(BASE_CONFIG)
        out2 = tmp_path / "again"
        run(cfg, out2)
        for rel in ("background.csv", "sonic_interface.csv", "fields/T.csv", "fields/M.csv"):
            assert (out / rel).read_bytes() == (out2 / rel).read_bytes()


class TestCliEntry:
    def test_background_subcommand(self, cfg_file, tmp_path):
        out = tmp_path / "bg"
        rc = main(["background", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        summary = read_json_artifact(out / "summary.json")
        assert summary["l_s"] == pytest.approx(0.28849347260501723, abs=1e-9)

    def test_regimes_subcommand(self, cfg_file, tmp_path):
        out = tmp_path / "rg"
        rc = main(["regimes", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 0
        report = read_json_artifact(out / "regime.json")
        assert report["certified"] is False

    def test_solve_subcommand_and_scale_sigma(self, cfg_file, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        assert main(["solve", "--config", str(cfg_file), "--out", str(out1)]) == 0
        assert main([
            "solve", "--config", str(cfg_file), "--out", str(out2), "--scale-sigma", "0.5",
        ]) == 0
        s1 = read_json_artifact(out1 / "summary.json")
        s2 = read_json_artifact(out2 / "summary.json")
        ratio = s1["state_norms"]["h1"] / s2["state_norms"]["h1"]
        assert 1.8 <= ratio <= 2.2

    def test_input_error_exit_code_and_json(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CONFIG + "\nbogus.key = 1\n")
        # the child imports the same package as this test, not an installed one
        src = str(Path(epnozzle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "epnozzle.cli", "solve", "--config", str(bad)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        error = json.loads(proc.stderr.strip().splitlines()[-1])
        assert error["error"] == "InputError"

    @pytest.mark.parametrize("command, zeta0, message", [
        ("background", "1.000000001", "zeta0 = 1.000000001 is too close to 1"),
        ("regimes", "1.00001", "no almost-sonic window fits below kappa_max = 1.000015"),
    ], ids=["background_zeta0_1e-9", "regimes_zeta0_1e-5"])
    def test_zeta0_near_1_exit_code_and_one_json_line(self, tmp_path, command, zeta0, message):
        # no warning, no traceback: stderr is the one JSON error line
        cfgp = tmp_path / "near1.cfg"
        cfgp.write_text(BASE_CONFIG.replace("gas.zeta0 = 2.0", f"gas.zeta0 = {zeta0}"))
        src = str(Path(epnozzle.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "epnozzle.cli", command, "--config", str(cfgp), "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()
        error = json.loads(line)
        assert error["error"] == "InputError" and error["message"].startswith(message)
        assert not (tmp_path / "o").exists()

    def test_zero_damping_exit_code_and_json(self, tmp_path, capsys):
        cfgp = tmp_path / "theta0.cfg"
        cfgp.write_text(BASE_CONFIG + "\ndamping.theta = 0\n")
        rc = main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and error["exit_code"] == 2
        assert "theta" in error["message"]

    @pytest.mark.parametrize("command", ["solve", "regimes", "background", "sweep"])
    def test_bad_gas_leaves_no_directory(self, tmp_path, capsys, command):
        # gamma = 0.5 passes the config's own checks and fails at the gas; nothing is written
        cfgp = tmp_path / "gamma.cfg"
        cfgp.write_text(BASE_CONFIG.replace("gas.gamma = 3.0", "gas.gamma = 0.5"))
        out = tmp_path / "o"
        sweep_args = ["--axis", "J", "--values", "1"] if command == "sweep" else []
        assert main([command, "--config", str(cfgp), "--out", str(out), *sweep_args]) == 2
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "InputError"
        assert not out.exists()

    def test_missing_certificate_exit_code(self, tmp_path):
        text = BASE_CONFIG.replace("flags.override_certificate = true", "")
        cfgp = tmp_path / "nocert.cfg"
        cfgp.write_text(text)
        rc = main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestBoundaryData:
    def test_family_is_wall_compatible_identically(self):
        from epnozzle import BoundaryDataSpec

        bdata = BoundaryDataSpec(
            sigma=0.3, s_modes=((1, 1.0), (3, 0.25)), e_modes=((2, 1.0),), w_modes=((1, 1.0), (2, 0.5))
        )
        walls = np.array([-1.0, 1.0])
        assert np.max(np.abs(bdata.w_en(walls))) <= 1e-15
        assert np.max(np.abs(bdata.psi_inlet(walls))) <= 1e-15

    @pytest.mark.parametrize(
        "family, modes",
        [("w_modes", ((1.7, 1.0),)), ("w_modes", ((0, 1.0),)), ("s_modes", ((1, float("nan")),)),
         ("e_modes", ((1, float("inf")),)), ("e_modes", ((-1, 1.0),)), ("s_modes", ((True, 1.0),)),
         ("w_modes", ((float("nan"), 1.0),)), ("s_modes", ((1, "x"),)), ("e_modes", (("a", 1.0),)),
         ("w_modes", ((1, True),)), ("s_modes", ((1, 1j),)), ("e_modes", ((2j, 1.0),))],
        ids=["fractional", "sine_mode_zero", "nan_coefficient", "inf_coefficient", "negative",
             "bool", "nan_mode", "str_coefficient", "str_mode", "bool_coefficient", "complex_coefficient",
             "complex_mode"],
    )
    def test_bad_mode_rejected_at_construction(self, family, modes):
        from epnozzle import BoundaryDataSpec

        with pytest.raises(InputError, match=rf"{family}: mode \({modes[0][0]!r}, "):
            BoundaryDataSpec(sigma=1e-4, **{family: modes})

    @pytest.mark.parametrize("sigma", ["1e-4", True, 1e-4j, None], ids=["str", "bool", "complex", "none"])
    def test_bad_sigma_rejected_at_construction(self, sigma):
        from epnozzle import BoundaryDataSpec

        with pytest.raises(InputError, match="sigma must be real"):
            BoundaryDataSpec(sigma=sigma, s_modes=((1, 1.0),))

    def test_integral_modes_normalized(self):
        from epnozzle import BoundaryDataSpec

        bdata = BoundaryDataSpec(sigma=1e-4, s_modes=((0, 1),), e_modes=((np.int64(2), 0.5),), w_modes=[(3.0, 1)])
        assert bdata.s_modes == ((0, 1.0),) and bdata.e_modes == ((2, 0.5),) and bdata.w_modes == ((3, 1.0),)
        assert all(type(n) is int and type(c) is float for n, c in bdata.s_modes + bdata.e_modes + bdata.w_modes)

    def test_inlet_potential_anchored_at_lower_wall(self):
        from epnozzle import BoundaryDataSpec

        bdata = BoundaryDataSpec(sigma=1e-2, w_modes=((1, 1.0),))
        assert bdata.psi_inlet(np.array([-1.0]))[0] == pytest.approx(0.0, abs=1e-15)
        # derivative of the inlet trace is w_en
        x = np.linspace(-1, 1, 101)
        num = np.gradient(bdata.psi_inlet(x), x)
        assert np.max(np.abs(num[2:-2] - bdata.w_en(x)[2:-2])) < 1e-3 * 1e-2

    def test_scaling(self):
        from epnozzle import BoundaryDataSpec

        bdata = BoundaryDataSpec(sigma=2.0, s_modes=((1, 1.0),))
        assert bdata.scaled(0.5).sigma == 1.0


class TestBuildProblem:
    def test_length_at_orbit_end(self):
        cfg = parse_config(BASE_CONFIG)
        l_max = build_problem(cfg)[1].l_max
        with pytest.raises(InputError):
            build_problem(with_overrides(cfg, kappaL=None, L=l_max))
        _, bg, grid, _ = build_problem(with_overrides(cfg, kappaL=None, L=l_max * (1 - 1e-12)))
        assert grid.L < bg.l_max and np.all(np.isfinite(grid.x1))
        prof = background_profile(bg, grid)
        for name in ("u1", "du1", "E", "rho", "Phi"):
            assert np.all(np.isfinite(getattr(prof, name))), name
        assert np.all(np.isfinite(bg.evaluate(grid.x1)["phi_pot"]))


class TestExitCodes:
    def test_non_convergence_exit_code(self, tmp_path):
        text = BASE_CONFIG + "\nsolver.max_outer = 1\n"
        cfgp = tmp_path / "short.cfg"
        cfgp.write_text(text)
        rc = main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize(
        "line, message",
        [
            ("solver.max_outer = 0", "max_outer"),
            ("tol.outer = -1", "tol_outer"),
            ("tol.outer = nan", "tol_outer"),
            ("tol.outer = inf", "tol_outer"),
            ("tol.root = 1e-12", "unknown config key 'tol.root'"),
            ("solver.eps0 = inf", "eps0"),
            ("tol.eps = nan", "tol_eps"),
            ("boundary.s_modes = 1:nan", "s_modes: mode (1, nan)"),
            ("boundary.w_modes = 0:1.0", "w_modes: mode (0, 1.0)"),
            ("boundary.e_modes = 1:inf", "e_modes: mode (1, inf)"),
        ],
        ids=["max_outer_zero", "tol_outer_negative", "tol_outer_nan", "tol_outer_inf",
             "tol_root_removed", "eps0_inf", "tol_eps_nan",
             "s_mode_nan_coefficient", "w_mode_zero", "e_mode_inf_coefficient"],
    )
    def test_outer_input_exit_code(self, tmp_path, capsys, line, message):
        # rejected as bad input before any field is written, not reported as
        # non-convergence or as an unhandled numerical error
        cfgp = tmp_path / "outer.cfg"
        cfgp.write_text(BASE_CONFIG.replace("tol.outer = 1e-09", "") + line + "\n")
        rc = main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and message in error["message"]
        assert not (tmp_path / "o" / "fields").exists()

    @pytest.mark.parametrize("command", ["background", "solve"])
    def test_non_numeric_value_exit_code(self, tmp_path, capsys, command):
        cfgp = tmp_path / "many.cfg"
        cfgp.write_text(BASE_CONFIG.replace("grid.n_x1 = 101", "grid.n_x1 = many"))
        rc = main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and "grid.n_x1: cannot read 'many'" in error["message"]

    def test_fractional_integer_key_exit_code(self, tmp_path, capsys):
        cfgp = tmp_path / "fraction.json"
        cfgp.write_text(json.dumps({"gas.gamma": 3.0, "gas.zeta0": 2.0, "gas.J": 1.0, "gas.S0": 0.3,
                                    "background.u0": 0.9, "domain.L": 0.1, "grid.n_x1": 101.7}))
        rc = main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and "grid.n_x1: cannot read 101.7" in error["message"]

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        cfgp = tmp_path / "bad.json"
        cfgp.write_text('{"gas.gamma": 3.0,')
        rc = main(["background", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and "not valid JSON" in error["message"]

    FLOAT_KEYS = ["gas.gamma", "gas.zeta0", "gas.J", "gas.S0", "gas.E0", "background.u0", "window.kappa0",
                  "window.kappaL", "window.d", "domain.L", "boundary.sigma", "tol.eps", "tol.outer",
                  "damping.theta", "solver.eps0", "solver.sigma_cap"]

    @pytest.mark.parametrize(
        "key, value",
        [(key, True) for key in FLOAT_KEYS]
        + [("boundary.s_modes", [[1, True]]), ("flags.emit_fields", 1), ("output.dir", None)],
        ids=repr,
    )
    def test_json_value_of_another_type_exit_code(self, tmp_path, capsys, monkeypatch, key, value):
        # one type rule for both config forms: a number is never a bool, a flag is a bool or a
        # word, output.dir is a string; a JSON value of another type is read as nothing else
        monkeypatch.chdir(tmp_path)
        (tmp_path / "typed.json").write_text(json.dumps({**TestConfig.MINIMAL, key: value}))
        assert main(["solve", "--config", "typed.json"]) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "InputError" and f"config key {key}: cannot read" in error["message"]
        assert [path.name for path in tmp_path.iterdir()] == ["typed.json"]

    @pytest.mark.parametrize(
        "name, text",
        [("modes.json", json.dumps({**TestConfig.MINIMAL, "boundary.s_modes": ["12"]})),
         ("modes.json", json.dumps({**TestConfig.MINIMAL, "boundary.e_modes": [[1, 1.0], "23"]})),
         ("dir.json", json.dumps({**TestConfig.MINIMAL, "output.dir": ""})),
         ("dir.json", json.dumps({**TestConfig.MINIMAL, "output.dir": "  "})),
         ("dir.cfg", "".join(f"{key} = {value}\n" for key, value in TestConfig.MINIMAL.items()) + "output.dir =\n")],
        ids=["mode_string", "mode_string_after_pair", "dir_empty_json", "dir_blank_json", "dir_empty_text"],
    )
    def test_misread_value_exit_code(self, tmp_path, capsys, monkeypatch, name, text):
        # a JSON mode item that is a string, not an [n, c] pair ("12" once read as mode 1 of
        # coefficient 2), and an empty output.dir (once a run into the current directory)
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(text)
        key = "output.dir" if name.startswith("dir") else "_modes"
        assert main(["solve", "--config", name]) == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        error = json.loads(line)
        assert error["error"] == "InputError" and "config key " in error["message"]
        assert key in error["message"].split(":")[0]
        assert [path.name for path in tmp_path.iterdir()] == [name]

    @pytest.mark.parametrize("key", ["gas.gamma", "gas.zeta0", "gas.J", "gas.S0"])
    def test_infinite_gas_parameter_exit_code(self, tmp_path, capsys, key):
        lines = [line for line in BASE_CONFIG.splitlines() if not line.startswith(f"{key} =")]
        cfgp = tmp_path / "inf.cfg"
        cfgp.write_text("\n".join(lines) + f"\n{key} = inf\n")
        rc = main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and f"{key[4:]} must be finite" in error["message"]

    def test_high_sine_mode_solves(self, tmp_path):
        # wall compatible by construction, though a numeric check of its wall
        # derivatives would see roundoff of size (60 pi)^5 ulp
        text = BASE_CONFIG.replace("grid.n_x1 = 101", "grid.n_x1 = 51").replace("grid.m = 4", "grid.m = 64")
        text = text.replace("boundary.sigma = 5e-05", "boundary.sigma = 1e-05")
        text = "\n".join(ln for ln in text.splitlines() if not ln.startswith("boundary.") or "sigma" in ln)
        cfgp = tmp_path / "w60.cfg"
        cfgp.write_text(text + "\nboundary.w_modes = 60:1.0\n")
        assert main(["solve", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 0
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["converged"] is True

    @pytest.mark.parametrize("resolution", ["1", "0", "-3"])
    def test_background_resolution_exit_code(self, tmp_path, capsys, resolution):
        cfgp = tmp_path / "res.cfg"
        cfgp.write_text(BASE_CONFIG.replace("background.resolution = 301", f"background.resolution = {resolution}"))
        rc = main(["background", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and "resolution" in error["message"]
        assert not (tmp_path / "o" / "background.csv").exists()

    def test_non_finite_scale_sigma_exit_code(self, cfg_file, tmp_path, capsys):
        rc = main(["solve", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--scale-sigma", "nan"])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and "boundary.sigma" in error["message"]
        assert not (tmp_path / "o").exists()


class TestSweep:
    # the canonical gas at 51 x 2 on a window given by its length
    LENGTH_CONFIG = "\n".join([
        "gas.gamma = 3.0", "gas.zeta0 = 2.0", "gas.J = 1.0", "gas.S0 = 0.3333333333333333",
        "background.u0 = 0.9", "domain.L = 0.7", "grid.n_x1 = 51", "grid.m = 2", "boundary.sigma = 1e-4",
        "boundary.s_modes = 1:1.0", "boundary.e_modes = 1:1.0", "flags.override_certificate = true"]) + "\n"

    def test_float_tables_of_a_sweep_are_per_value_formatting(self, tmp_path):
        # two certified small-J rows of the benchmark's gamma = 1.4 gas at 51 x 2
        cfg = parse_config("\n".join([
            "gas.gamma = 1.4", "gas.zeta0 = 2.0", "gas.J = 0.001", "gas.S0 = 1.0", "window.d = 0.015625",
            "grid.n_x1 = 51", "grid.m = 2", "boundary.sigma = 1.5e-7",
            "boundary.s_modes = 1:1.0;2:0.5;3:0.3333333333333333",
            "boundary.e_modes = 1:1.0;2:0.5;3:0.3333333333333333"]))
        rows = sweep(cfg, "J", [0.001, 0.005], tmp_path / "sweep")
        assert [r["converged"] for r in rows] == [True, True]
        assert assert_float_tables_per_value(tmp_path / "sweep") == 20

    def test_empty_values_empty_table(self, cfg_file, tmp_path):
        out = tmp_path / "sw0"
        rc = main(["sweep", "--config", str(cfg_file), "--axis", "J", "--values", "", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines == ["value,L,alpha_min,certified,converged,sup_gs_minus_ls,iterations"]

    def test_sigma_sweep_ratios(self, tmp_path):
        cfg = parse_config(BASE_CONFIG)
        out = tmp_path / "sigma_sweep"
        rows = sweep(cfg, "sigma", [1.0, 0.5, 0.25], out)
        assert all(r["converged"] for r in rows)
        devs = [r["sup_gs_minus_ls"] for r in rows]
        assert 1.8 <= devs[0] / devs[1] <= 2.2
        assert 1.8 <= devs[1] / devs[2] <= 2.2

    def test_sigma_row_solves_the_config(self, tmp_path):
        # a sigma row keeps its config's window: on a domain.L config its row directory is the
        # solve's, file for file (rebuilt from speed ratios, the row solved L = 0.6999999999999993)
        cfgp = tmp_path / "length.cfg"
        cfgp.write_text(self.LENGTH_CONFIG)
        solve, swept = tmp_path / "solve", tmp_path / "sweep"
        assert main(["solve", "--config", str(cfgp), "--out", str(solve)]) == 0
        assert main(["sweep", "--config", str(cfgp), "--axis", "sigma", "--values", "1", "--out", str(swept)]) == 0
        row = swept / "row_sigma_1.0"
        files = sorted(path.relative_to(solve) for path in solve.rglob("*") if path.is_file())
        assert files == sorted(path.relative_to(row) for path in row.rglob("*") if path.is_file())
        for rel in files:
            assert (row / rel).read_bytes() == (solve / rel).read_bytes(), rel
        # sweep.csv's L is the nozzle length of the row's ratio window, not the solved L itself
        length = float((swept / "sweep.csv").read_text().splitlines()[1].split(",")[1])
        assert length == pytest.approx(0.7, rel=1e-12)

    def test_failed_row_says_why_on_stderr(self, tmp_path, capsys):
        # the d = 0.05 row's window is too short for the config's sigma; the d = 0.1 row solves
        cfgp = tmp_path / "length.cfg"
        cfgp.write_text(self.LENGTH_CONFIG)
        out = tmp_path / "dsweep"
        assert main(["sweep", "--config", str(cfgp), "--axis", "d", "--values", "0.05,0.1", "--out", str(out)]) == 0
        [line] = capsys.readouterr().err.strip().splitlines()
        failed = json.loads(line)
        assert (failed["value"], failed["error"]) == (0.05, "InputError")
        assert "exceeds cap" in failed["message"]
        table = (out / "sweep.csv").read_text().splitlines()
        assert table[0] == "value,L,alpha_min,certified,converged,sup_gs_minus_ls,iterations"
        assert [row.split(",")[4] for row in table[1:]] == ["false", "true"]
        assert table[1].split(",")[5] == "nan"
        assert not (out / "row_d_0.05").exists() and (out / "row_d_0.1" / "summary.json").exists()

    def test_J_sweep_uncertified_rows_recorded(self, tmp_path):
        # gamma = 1.4 small-momentum family: L increases as J decreases
        text = BASE_CONFIG.replace("gas.gamma = 3.0", "gas.gamma = 1.4").replace(
            "gas.S0 = 0.3333333333333333", "gas.S0 = 1.0"
        ).replace("background.u0 = 0.9", "window.kappa0 = 0.98").replace(
            "window.kappaL = 1.1", "window.kappaL = 1.02"
        ).replace("flags.override_certificate = true", "flags.override_certificate = false")
        cfg = parse_config(text)
        out = tmp_path / "jsweep"
        rows = sweep(cfg, "J", [1.0, 0.1, 0.01, 0.001], out)
        assert len(rows) == 4
        Ls = [r["L"] for r in rows]
        assert all(np.isfinite(Ls))
        assert Ls == sorted(Ls)  # L increases as J decreases along the row order
        assert not rows[0]["certified"]          # J = 1 not certified
        certified = [r for r in rows if r["certified"]]
        assert any(r["value"] <= 1e-2 for r in certified)

    @pytest.mark.parametrize("values, message",
                             [("1e-3,abc", "--values"), ("2e-3,2e-3", "repeated"), ("1e-3,inf", "finite")],
                             ids=["not_a_number", "repeated", "infinite"])
    def test_bad_values_exit_code(self, cfg_file, tmp_path, capsys, values, message):
        out = tmp_path / "bad"
        rc = main(["sweep", "--config", str(cfg_file), "--axis", "J", "--values", values, "--out", str(out)])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and message in error["message"]
        assert not out.exists()

    def test_repeated_values_rejected_before_any_row(self, tmp_path):
        # 2e-3 and 0.002 are one float, so both rows would write row_J_0.002
        with pytest.raises(InputError, match="repeated"):
            sweep(parse_config(BASE_CONFIG), "J", [2e-3, 1e-3, 0.002], tmp_path / "dup")
        assert not (tmp_path / "dup").exists()

    def test_bad_mode_list_exit_code_before_any_row(self, tmp_path, capsys):
        cfgp = tmp_path / "modes.cfg"
        cfgp.write_text(BASE_CONFIG.replace("boundary.w_modes = 1:1.0", "boundary.w_modes = 0:1.0"))
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(cfgp), "--axis", "J", "--values", "1.0,0.5", "--out", str(out)])
        assert rc == 2
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError" and "w_modes" in error["message"]
        assert not out.exists()

    @staticmethod
    def _sweep_input_error(tmp_path, capsys, key, value) -> str:
        """The InputError message of a two-row J sweep of BASE_CONFIG with ``key = value``;
        the sweep must exit 2 before any row writes its output."""
        lines = [line for line in BASE_CONFIG.splitlines() if not line.startswith(f"{key} =")]
        cfgp = tmp_path / "bad.cfg"
        cfgp.write_text("\n".join(lines) + f"\n{key} = {value}\n")
        out = tmp_path / "sw"
        rc = main(["sweep", "--config", str(cfgp), "--axis", "J", "--values", "0.001,0.002", "--out", str(out)])
        assert rc == 2 and not out.exists()
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error["error"] == "InputError"
        return error["message"]

    @pytest.mark.parametrize("key, value", [("grid.n_x1", "5"), ("grid.m", "-1"), ("background.resolution", "1")])
    def test_bad_size_exit_code_before_any_row(self, tmp_path, capsys, key, value):
        # the rows would each fail on their own grid or background and the sweep exit 0
        assert self._sweep_input_error(tmp_path, capsys, key, value).startswith(key)

    @pytest.mark.parametrize(
        "key, value, message",
        [("damping.theta", "2.0", "theta"), ("solver.eps0", "-1", "eps0"), ("tol.eps", "nan", "tol_eps"),
         ("tol.outer", "nan", "tol_outer"), ("solver.max_outer", "0", "max_outer"),
         ("solver.eps_cap", "-1", "cap")],
    )
    def test_bad_solver_option_exit_code_before_any_row(self, tmp_path, capsys, key, value, message):
        # each row would fail in its own solve, every row read converged=false, and the sweep exit 0
        assert message in self._sweep_input_error(tmp_path, capsys, key, value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-3"])
    def test_bad_sigma_cap_exit_code_before_any_row(self, tmp_path, capsys, value):
        # every row's solve would reject its amplitude against the cap and the sweep exit 0
        assert "sigma_cap" in self._sweep_input_error(tmp_path, capsys, "solver.sigma_cap", value)

    def test_infinite_J_row_recorded(self, tmp_path):
        rows = sweep(parse_config(BASE_CONFIG), "J", [float("inf")], tmp_path / "inf_row")
        assert rows[0]["error"] == "InputError: J must be finite, got inf"

    def test_non_finite_sigma_row_recorded(self, tmp_path):
        rows = sweep(parse_config(BASE_CONFIG), "sigma", [float("nan")], tmp_path / "nan_row")
        assert rows[0]["error"].startswith("InputError") and "boundary.sigma" in rows[0]["error"]
        assert not rows[0]["converged"]
