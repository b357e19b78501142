"""Scenario parsing, schema enforcement, CLI commands and emission format."""

import argparse
import hashlib
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy

import parabose
from parabose.cli import _COMMANDS, _build_parser, _emit, main
from parabose.config import ScenarioConfig, parse_scenario
from parabose.errors import ConfigError


class TestScenarioParsing:
    def test_defaults_and_sections(self):
        cfg = ScenarioConfig()
        assert cfg.epsilon() == 0.5
        assert cfg["output.digits"] == 12
        assert cfg.schedule().coefficients(0.0) == (0.0, 1.0, 0.0)

    def test_parse_round_trip(self):
        text = """
        # comment line
        algebra.ell = 2
        algebra.l = 0.8
        state.zeta_re = 0.3   # trailing comment
        state.xi_abs = 1.5
        state.xi_arg = 0.7853981633974483
        figure.epsilons = 0.5, 2.5
        """
        cfg = parse_scenario(text, source="inline")
        assert cfg.epsilon() == 4.5
        assert cfg.algebra_params().length_scale == 0.8
        assert cfg.zeta0() == 0.3
        assert abs(cfg.xi0() - 1.5 * np.exp(0.7853981633974483j)) < 1e-15
        assert cfg["figure.epsilons"] == (0.5, 2.5)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="inline:3"):
            parse_scenario("\nalgebra.ell = 1\nbad.key = 7\n", source="inline")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="inline:2"):
            parse_scenario("\nalgebra.l = fast\n", source="inline")

    @pytest.mark.parametrize("key,least", [
        ("run.samples", 1), ("figure.nodes", 1), ("figure.points", 16),
        ("figure.n_max", 0)])
    def test_counts_have_a_least_value(self, key, least):
        cfg = ScenarioConfig().with_overrides([f"{key}={least}"])
        assert cfg[key] == least
        with pytest.raises(ConfigError, match=f"'{key}'.*>= {least}"):
            ScenarioConfig().with_overrides([f"{key}={least - 1}"])

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="inline:1"):
            parse_scenario("algebra.ell 1", source="inline")

    def test_override_mechanism(self):
        cfg = ScenarioConfig().with_overrides(["algebra.ell=1", "run.samples=4"])
        assert cfg.epsilon() == 2.5 and cfg["run.samples"] == 4
        with pytest.raises(ConfigError):
            ScenarioConfig().with_overrides(["nonsense"])
        with pytest.raises(ConfigError):
            ScenarioConfig().with_overrides(["no.such.key=1"])

    def test_epsilon_ell_conflict(self):
        with pytest.raises(ConfigError):
            parse_scenario("algebra.ell = 1\nalgebra.epsilon = 3.0\n").epsilon()

    def test_bad_family(self):
        with pytest.raises(ConfigError):
            parse_scenario("schedule.family = random\n")

    def test_unknown_key_in_values_rejected(self):
        with pytest.raises(ConfigError, match="'state.zeta'"):
            ScenarioConfig(values={"state.zeta": 0.3})

    def test_tabulated_needs_table(self):
        cfg = parse_scenario("schedule.family = tabulated\n")
        with pytest.raises(ConfigError):
            cfg.schedule()


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestCommands:
    def test_svs_prob_values_and_zero_squeeze(self, tmp_path):
        out = str(tmp_path / "a")
        assert main(["svs-prob", "--out", out, "--set", "state.zeta_abs=0.3",
                     "--set", "figure.epsilons=0.5"]) == 0
        body = read(os.path.join(out, "svs_prob_eps0.5.csv")).splitlines()
        assert body[0] == "n,P2n"
        assert body[1] == "0,0.953939201417"
        # zero squeeze emits the single certain line
        assert main(["svs-prob", "--out", out,
                     "--set", "figure.epsilons=1.5"]) == 0
        body = read(os.path.join(out, "svs_prob_eps1.5.csv")).splitlines()
        assert body == ["n,P2n", "0,1"]

    def test_cs_prob_odd_columns_follow_displacement(self, tmp_path):
        out = str(tmp_path / "b")
        assert main(["cs-prob", "--out", out, "--set", "state.zeta_abs=0.3",
                     "--set", "figure.epsilons=2.5",
                     "--set", "figure.n_max=9"]) == 0
        rows = read(os.path.join(out, "cs_prob_eps2.5.csv")).splitlines()[1:]
        odd = [float(r.split(",")[1]) for r in rows[1::2]]
        assert all(v == 0.0 for v in odd)  # xi defaults to zero

    def test_cs_prob_at_large_epsilon(self, tmp_path):
        # |pre|^2 passes double range from eps ~ 171.6: every row once
        # raised, naming y rather than eps
        out = str(tmp_path / "e")
        assert main(["cs-prob", "--out", out, "--set", "state.zeta_abs=0.3",
                     "--set", "state.xi_re=1", "--set", "figure.epsilons=200",
                     "--set", "figure.n_max=300"]) == 0
        rows = read(os.path.join(out, "cs_prob_eps200.csv")).splitlines()[1:]
        p = [float(r.split(",")[1]) for r in rows]
        assert len(p) == 301 and all(0.0 < v < 1.0 for v in p)

    def test_cs_prob_past_y_700(self, tmp_path, capsys):
        # y = 900: lines 402-1510 once raised (exit 2) and the lines on
        # either side read 0.0; y = 2500 is past the columns' reach, and
        # the error names y
        out = str(tmp_path / "y")
        assert main(["cs-prob", "--out", out, "--set", "state.xi_re=30",
                     "--set", "figure.n_max=1000",
                     "--set", "figure.epsilons=2.5"]) == 0
        rows = read(os.path.join(out, "cs_prob_eps2.5.csv")).splitlines()[1:]
        with mpmath.workdps(40):
            # zeta = 0: P_n = (y/2)^(n+eps-1) / (m! Gamma(m+eps+parity)
            # (I_{eps-1}(y) + I_eps(y))), n = 2m + parity
            y, eps = mpmath.mpf(900), mpmath.mpf(2.5)
            norm = mpmath.besseli(eps - 1, y) + mpmath.besseli(eps, y)
            for n in (401, 900):
                m, parity = divmod(n, 2)
                ref = (y / 2) ** (n + eps - 1) / (
                    mpmath.factorial(m) * mpmath.gamma(m + eps + parity)
                    * norm)
                assert rows[n].startswith(f"{n},")
                assert float(rows[n].split(",")[1]) == pytest.approx(
                    float(ref), rel=1e-11, abs=0.0)  # 12 printed digits
        capsys.readouterr()
        assert main(["cs-prob", "--out", str(tmp_path / "z"),
                     "--set", "state.xi_re=50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "y = |xi|^2/(1-|zeta|^2)" in err

    def test_weight_start_value(self, tmp_path):
        out = str(tmp_path / "c")
        assert main(["weight", "--out", out,
                     "--set", "figure.epsilons=2"]) == 0
        rows = read(os.path.join(out, "weight_eps2.csv")).splitlines()
        assert rows[1] == "0,0.318309886184"

    def test_weight_rejects_low_levels(self, tmp_path):
        out = str(tmp_path / "d")
        assert main(["weight", "--out", out,
                     "--set", "figure.epsilons=0.5,1.0"]) == 2

    def test_weight_falls_back_to_algebra_level(self, tmp_path):
        out = str(tmp_path / "d2")
        assert main(["weight", "--out", out,
                     "--set", "figure.epsilons=0.5",
                     "--set", "algebra.epsilon=2.5"]) == 0
        assert os.path.exists(os.path.join(out, "weight_eps2.5.csv"))

    def test_density_files_and_columns(self, tmp_path):
        out = str(tmp_path / "e")
        assert main(["density", "--config", "configs/fig_density.conf",
                     "--out", out, "--set", "figure.ells=0,1"]) == 0
        rows = read(os.path.join(out, "density_ell1.csv")).splitlines()
        assert rows[0] == "x,psi_re,psi_im,rho"
        assert len(rows) == 2049

    def test_density_coarse_grid_accepted(self, tmp_path):
        # the norm is checked on nodes of its own, not on the emission grid
        out = str(tmp_path / "e2")
        assert main(["density", "--config", "configs/fig_density.conf",
                     "--out", out, "--set", "figure.ells=0",
                     "--set", "figure.points=512"]) == 0
        assert len(read(os.path.join(out, "density_ell0.csv")).splitlines()) \
            == 513

    def test_density_narrow_squeezed_state(self, tmp_path):
        assert main(["density", "--out", str(tmp_path),
                     "--set", "state.zeta_abs=0.7"]) == 0

    def test_oscillator_zero_displacement_centers(self, tmp_path):
        out = str(tmp_path / "f")
        assert main(["oscillator", "--out", out, "--set", "algebra.ell=2",
                     "--set", "run.samples=8",
                     "--set", "figure.zetas=0.5"]) == 0
        rows = read(os.path.join(out, "oscillator_trajectory.csv")).splitlines()
        x_col = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(v == 0.0 for v in x_col)
        prob = read(os.path.join(out, "oscillator_prob_zeta0.5.csv")).splitlines()
        odd = [float(r.split(",")[1]) for r in prob[2::2]]
        assert all(v == 0.0 for v in odd)

    def test_evolve_with_tabulated_schedule(self, tmp_path):
        # the CSV schedule interface drives the full oracle pipeline
        table = tmp_path / "drive.csv"
        ts = np.linspace(0.0, 1.0, 257)
        lines = ["t,alpha_re,alpha_im,beta,delta"]
        for t in ts:
            lines.append(f"{t},{0.1 * math.sin(2 * t)},0,1.0,0")
        table.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "tab")
        assert main(["evolve", "--out", out,
                     "--set", "schedule.family=tabulated",
                     "--set", f"schedule.table={table}",
                     "--set", "algebra.ell=1",
                     "--set", "state.zeta_re=0.2",
                     "--set", "state.xi_re=0.5",
                     "--set", "run.t_final=1.0",
                     "--set", "run.samples=4"]) == 0
        rows = read(os.path.join(out, "evolve_oracle.csv")).splitlines()
        for row in rows[1:]:
            _, fid, eig, _ = (float(v) for v in row.split(","))
            assert fid >= 1.0 - 1e-6 and eig <= 1e-5

    def test_evolve_oracle_columns(self, tmp_path):
        out = str(tmp_path / "g")
        assert main(["evolve", "--out", out, "--set", "algebra.ell=1",
                     "--set", "state.zeta_re=0.2", "--set", "state.xi_re=0.5",
                     "--set", "run.t_final=1.0", "--set", "run.samples=4"]) == 0
        rows = read(os.path.join(out, "evolve_oracle.csv")).splitlines()
        assert rows[0] == "t,fidelity,eigen_residual,norm_error"
        for row in rows[1:]:
            t, fid, eig, nerr = (float(v) for v in row.split(","))
            assert fid >= 1.0 - 1e-7 and eig <= 1e-6 and nerr <= 1e-8

    def test_evolve_samples_lie_on_the_parameter_grid(self, tmp_path):
        # 100 samples do not divide the default 4096 steps; the parameter
        # grids are refined so that each sample is a grid point, where the
        # integral of motion is read without interpolation
        out = str(tmp_path / "g100")
        assert main(["evolve", "--out", out, "--set", "algebra.ell=1",
                     "--set", "state.zeta_re=0.3", "--set", "state.xi_re=1",
                     "--set", "schedule.family=sinusoidal",
                     "--set", "schedule.alpha_amp_re=0.2",
                     "--set", "run.truncation=96",
                     "--set", "run.samples=100"]) == 0
        rows = read(os.path.join(out, "evolve_oracle.csv")).splitlines()[1:]
        assert len(rows) == 101
        assert max(float(row.split(",")[2]) for row in rows) <= 1e-9

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_default_config(self, tmp_path, command):
        assert main([command, "--out", str(tmp_path)]) == 0
        assert not [n for n in os.listdir(tmp_path) if n.startswith(".")]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        replace = os.replace

        def replace_all_but_scripts(src, dst):
            if dst.endswith(".gp"):
                raise OSError("injected rename failure")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_all_but_scripts)
        with pytest.raises(OSError, match="injected"):
            main(["weight", "--out", str(tmp_path), "--set",
                  "figure.epsilons=2", "--plot-script"])
        assert os.listdir(tmp_path) == ["weight_eps2.csv"]

    def test_row_format_matches_per_value_format(self, tmp_path):
        values = [-0.0, 5e-324, 1e22, 1 / 3, 3.0]
        cfg = ScenarioConfig().with_overrides([f"output.dir={tmp_path}"])
        _emit(cfg, argparse.Namespace(plot_script=False), "pin",
              {"v": values, "w": values[::-1]})
        rows = read(tmp_path / "pin.csv").splitlines()
        assert rows[0] == "v,w"
        assert rows[1:] == [f"{v:.12g},{w:.12g}"
                            for v, w in zip(values, values[::-1])]
        assert [row.split(",")[0] for row in rows[1:]] == [
            "-0", "4.94065645841e-324", "1e+22", "0.333333333333", "3"]

    def test_plot_script_emission(self, tmp_path):
        out = str(tmp_path / "h")
        assert main(["weight", "--out", out, "--set", "figure.epsilons=2",
                     "--plot-script"]) == 0
        script = read(os.path.join(out, "weight_eps2.gp"))
        assert "weight_eps2.csv" in script

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("who = knows\n")
        assert main(["svs-prob", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command,overrides", [
        ("svs-prob", ["state.zeta_re=nan"]),
        ("oscillator", ["algebra.ell=1", "algebra.l=nan"]),
        ("oscillator", ["algebra.ell=1", "schedule.beta=nan"]),
        ("oscillator", ["algebra.ell=1", "state.zeta_re=nan"]),
        ("cs-prob", ["state.xi_re=nan"]),
        ("weight", ["figure.r_max=nan"]),
        ("oscillator", ["algebra.ell=1", "state.xi_re=nan"]),
        ("oscillator", ["algebra.ell=1", "run.t_final=nan"]),
        ("evolve", ["run.t_final=nan", "run.samples=1"]),
        ("evolve", ["run.t_final=inf"]),
        # P_0 = e^-2500, past the coherent columns' reach (at xi_re = 30
        # once 613 nan rows and exit 0, then exit 2; now it reads)
        ("cs-prob", ["state.xi_re=50", "figure.n_max=1000",
                     "figure.epsilons=2.5"]),
        # |xi|^2 past double range: once a bare OverflowError, exit 1
        ("cs-prob", ["state.xi_re=1e200"]),
        # counts below their least value: once a bare numpy ValueError
        # (exit 1) or a header-only CSV (exit 0)
        ("oscillator", ["run.samples=-5"]),
        ("weight", ["figure.nodes=-3"]),
        ("density", ["figure.points=-5"]),
        ("weight", ["figure.nodes=0"]),
        ("cs-prob", ["figure.n_max=-2"]),
        # past 2 MAX_PAIRS levels: once built whatever it was given
        ("evolve", ["run.truncation=400002"]),
    ])
    def test_nan_input_fails_loudly(self, tmp_path, capsys, command, overrides):
        out = tmp_path / "nan"
        argv = [command, "--out", str(out)]
        for pair in overrides:
            argv += ["--set", pair]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: ") for line in err)
        assert not list(out.glob("*.csv"))

    def test_density_points_below_the_grid_rule(self, tmp_path, capsys):
        # once rejected by probability_density's grid rule, key unnamed
        assert main(["density", "--out", str(tmp_path),
                     "--set", "figure.points=8"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("error: ") and "'figure.points'" in line
                   and ">= 16" in line for line in err)
        assert not list(tmp_path.glob("*.csv"))

    def test_near_lattice_epsilon_reads_as_its_level(self, tmp_path):
        # 1e-13 off eps = 2 ell + 1/2 is level ell = 1, as in coordrep
        assert main(["evolve", "--out", str(tmp_path),
                     "--set", "algebra.epsilon=2.5000000000001",
                     "--set", "run.samples=1", "--set", "run.t_final=0.1"]) == 0


class TestSurface:
    OPTIONS = {"--config", "--set", "--out", "--seed", "--plot-script"}

    def test_every_subcommand_has_the_same_options(self):
        (sub,) = [a for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(_COMMANDS)
        for name, parser in sub.choices.items():
            options = {s for a in parser._actions for s in a.option_strings}
            assert options - {"-h", "--help"} == self.OPTIONS, name

    def test_sabotage_is_not_an_option(self, capsys):
        # the mutation hook is states.set_sabotage, not a CLI flag
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--sabotage"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: parabose")
        assert "error: unrecognized arguments: --sabotage" in err


# SHA-256 of the 21 CSVs the five figure commands write on configs/fig_*.conf,
# pinned on these numpy and scipy versions: the last digits are promised only
# on one host's libraries
FIGURE_LIBRARIES = {"numpy": "2.4.6", "scipy": "1.17.1"}
FIGURE_SHA256 = {
    "cs_prob/cs_prob_eps0.5.csv":
        "510f795a3381850ce31483a304975724e1930fbbdd5e04effae9aca0f7ce2829",
    "cs_prob/cs_prob_eps2.5.csv":
        "3ffc87945993512651ab8ea9d2796dbc56105eefee762401e29ac66f98a54600",
    "cs_prob/cs_prob_eps4.5.csv":
        "391457542a4bb3a208a0a3f70a9dab855e8342a07257f0bf3e4fa7e508e432aa",
    "cs_prob/cs_prob_eps6.5.csv":
        "49a5638ee10364d6d53d1ad9474c324e40b96476f2972c9d914c895e0aaa353a",
    "density/density_ell0.csv":
        "62154d25d273cff825a7ec9e34d29a2689ac8f34bbf54db02cd7ea0465e46492",
    "density/density_ell1.csv":
        "7af82853c5360d9443760ffd61efad9c9ab66a452a0679fcf13ba0533a093ea9",
    "density/density_ell2.csv":
        "1cba699ea5ce1f2f06fec49927228ed2ed28e81924e819264284f6b88a5f3284",
    "density/density_ell3.csv":
        "e4dea19d2485369c4127954113c360296a436ad822fa7b489e7e40d85d4193f4",
    "oscillator/oscillator_prob_zeta0.25.csv":
        "84bfffb769a411753b4aae6382621352290145ce5543db275735785972dbf3f1",
    "oscillator/oscillator_prob_zeta0.5.csv":
        "4929076fe4eef1961fe07b5c56c444a34cc30517e185911f88696dead5f55188",
    "oscillator/oscillator_prob_zeta0.75.csv":
        "7f3b439b2b502ecb973d1b96ccb118bf9112195f0e30ad5b4c3cc105a7e86912",
    "oscillator/oscillator_prob_zeta0.csv":
        "cadb13fc5ed733e5039cab115be7c0f62abc6783021636790ccf972ea0eea682",
    "oscillator/oscillator_trajectory.csv":
        "ec11f386f9d4684ba184bc7cf52add81776e1f16668850a1784b534eb247e46b",
    "svs_prob/svs_prob_eps0.5.csv":
        "63c2e0c26f14762b3e87db2a53019aeba9e84b29e6dda38f76f256ba93a68f7d",
    "svs_prob/svs_prob_eps2.5.csv":
        "dae2b59469188a47fbd528d51ea5d48a58e42b9e8c2ee06c2031431103782bdd",
    "svs_prob/svs_prob_eps4.5.csv":
        "0039e4176ad50cb0c5ed0594425abaadc35a1a3658a7a5069fa14eb88f4b122a",
    "svs_prob/svs_prob_eps6.5.csv":
        "9d5d993318b8c6ef59e214d0072f2eafa38fe1bd181324ce78a0894ee42b3113",
    "weight/weight_eps1.5.csv":
        "7949828d1bb682d19fa18978d12af27fbc755724d4fd32fcb63c945ddd16ad4a",
    "weight/weight_eps2.csv":
        "9dc1f3a8fcb719155494a1f5a6bebd67cde0a689bc414fc3107e477f027b7bc3",
    "weight/weight_eps3.csv":
        "5a017a19fd3ed423619aeb6e2ed49cc474f354ba56d9ca7a8d1c2b0386206b05",
    "weight/weight_eps5.csv":
        "18fb962b989f062534ec50335e9ed5314c2b31cf6ee26f666287c4f37e870cb6",
}


class TestDeterminism:
    def test_figure_bytes_pinned(self, tmp_path):
        found = {"numpy": np.__version__, "scipy": scipy.__version__}
        if found != FIGURE_LIBRARIES:
            pytest.skip(f"figure bytes pinned on {FIGURE_LIBRARIES}, "
                        f"found {found}")
        src = os.path.dirname(os.path.dirname(parabose.__file__))
        configs = os.path.join(os.path.dirname(src), "configs")
        written = {}
        for stem in ("svs_prob", "cs_prob", "density", "weight", "oscillator"):
            out = tmp_path / stem
            assert main([stem.replace("_", "-"), "--out", str(out), "--config",
                         os.path.join(configs, f"fig_{stem}.conf")]) == 0
            for path in out.iterdir():
                written[f"{stem}/{path.name}"] = \
                    hashlib.sha256(path.read_bytes()).hexdigest()
        assert written == FIGURE_SHA256

    def test_figure_commands_byte_identical(self, tmp_path):
        for cmd, extra in (
            ("svs-prob", ["--set", "state.zeta_abs=0.3",
                          "--set", "figure.epsilons=2.5"]),
            ("weight", ["--set", "figure.epsilons=2"]),
            ("density", ["--set", "figure.ells=0,1", "--set", "state.xi_im=1",
                         "--set", "state.zeta_re=0.45",
                         "--set", "figure.points=256"]),
            ("oscillator", ["--set", "algebra.ell=2", "--set", "state.xi_im=1",
                            "--set", "run.samples=16",
                            "--set", "figure.zetas=0.5",
                            "--set", "figure.n_max=10"]),
        ):
            outs = []
            for tag in ("r1", "r2"):
                out = str(tmp_path / f"{cmd}-{tag}")
                assert main([cmd, "--out", out, *extra]) == 0
                names = sorted(os.listdir(out))
                outs.append([read(os.path.join(out, n)) for n in names])
            assert outs[0] == outs[1]

    def test_parser_reuse_leaks_no_override(self, tmp_path):
        # main builds its argparse tree once per process: a run without
        # --set after one with it writes what a fresh process writes
        assert _build_parser() is _build_parser()
        assert main(["svs-prob", "--out", str(tmp_path / "set"),
                     "--set", "state.zeta_abs=0.3"]) == 0
        assert main(["svs-prob", "--out", str(tmp_path / "again")]) == 0
        src = os.path.dirname(os.path.dirname(parabose.__file__))
        subprocess.run([sys.executable, "-m", "parabose.cli", "svs-prob",
                        "--out", str(tmp_path / "fresh")], check=True,
                       env={**os.environ, "PYTHONPATH": src})
        runs = {}
        for tag in ("set", "again", "fresh"):
            out = tmp_path / tag
            runs[tag] = {n: read(os.path.join(out, n))
                         for n in sorted(os.listdir(out))}
        assert runs["again"] == runs["fresh"]
        assert runs["set"] != runs["fresh"]


def test_figure_commands_leave_scipy_special_unloaded(tmp_path):
    # on their configs the five figure commands evaluate Bessel functions
    # only on the lattice eps = 2 ell + 1/2, where they are elementary, and
    # no Jacobi rule, so neither the import nor a run loads scipy.special
    # (about half of a cold command's time)
    src = os.path.dirname(os.path.dirname(parabose.__file__))
    configs = os.path.join(os.path.dirname(src), "configs")
    probe = "\n".join([
        "import os, sys",
        "import parabose.cli",
        "print('import' if 'scipy.special' in sys.modules else '')",
        "for cmd, conf in [('svs-prob', 'svs_prob'), ('cs-prob', 'cs_prob'),",
        "                  ('density', 'density'), ('weight', 'weight'),",
        "                  ('oscillator', 'oscillator')]:",
        f"    assert parabose.cli.main([cmd, '--config', os.path.join("
        f"{configs!r}, 'fig_' + conf + '.conf'), '--out', "
        f"os.path.join({str(tmp_path)!r}, cmd)]) == 0",
        "    print(cmd if 'scipy.special' in sys.modules else '')",
    ])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == []
    assert sorted(os.listdir(tmp_path)) == ["cs-prob", "density",
                                            "oscillator", "svs-prob", "weight"]
