import math
import os
import subprocess
import sys

import pytest

import mc_arelab
from mc_arelab import perf
from mc_arelab.channel import summarize
from mc_arelab.cli import main
from mc_arelab.config import SystemConfig
from mc_arelab.detection import characterize, collapse_iui


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(out):
    return [line for line in out.splitlines() if not line.startswith("#")]


class TestPlumbing:
    def test_success_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "grid", "--interferers", "6")
        assert code == 0
        assert err == ""

    def test_header_names_tool_seed_and_config(self, capsys):
        _, out, _ = run_cli(capsys, "detect", "--seed", "11", "--interferers", "6")
        lines = out.splitlines()
        assert lines[0] == "# mc-arelab 0.1.0"
        assert lines[1] == "# seed = 11"
        assert "# n_interferers = 6" in lines
        assert "# grid = hex" in lines

    def test_bad_value_names_key(self, capsys):
        code, _, err = run_cli(capsys, "detect", "--c", "-5")
        assert code == 2
        assert "c:" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "detect", "--velocity", "1")
        assert code == 2

    def test_unknown_subcommand_rejected(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2
        assert run_cli(capsys)[0] == 2

    def test_unknown_config_key_names_it(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("velocity = 1\n")
        code, _, err = run_cli(capsys, "detect", "--config", str(path))
        assert code == 2
        assert "velocity" in err

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "detect", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2
        assert err != ""

    def test_flags_override_config_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_mol = 100\nc = 0.3\n")
        _, out, _ = run_cli(capsys, "detect", "--config", str(path), "--nmol", "50", "--interferers", "6")
        assert "# n_mol = 50" in out.splitlines()
        assert "# c = 0.3" in out.splitlines()

    def test_out_writes_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, out, _ = run_cli(capsys, "grid", "--interferers", "6", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().splitlines()[0] == "# mc-arelab 0.1.0"

    def test_config_round_trip_reproduces_output(self, capsys, tmp_path):
        args = ("mc-validate", "--nmol", "50", "--samples", "5000", "--theta-max", "20", "--seed", "3")
        _, first, _ = run_cli(capsys, *args)
        header = [
            line[2:]
            for line in first.splitlines()[2:]
            if line.startswith("# ") and " = " in line
        ]
        path = tmp_path / "resolved.cfg"
        path.write_text("\n".join(header) + "\n")
        _, second, _ = run_cli(capsys, "mc-validate", "--config", str(path))
        assert second == first

    def test_reruns_are_byte_identical(self, capsys):
        args = ("mc-validate", "--seed", "7", "--samples", "20000", "--theta-max", "25")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert second == first


class TestGrid:
    def test_row_per_site(self, capsys):
        _, out, _ = run_cli(capsys, "grid")
        rows = data_lines(out)
        assert rows[0] == "index,ring,x_m,y_m,distance_m"
        assert len(rows) == 1 + 37

    def test_square_layout(self, capsys):
        _, out, _ = run_cli(capsys, "grid", "--grid", "square")
        rows = data_lines(out)
        assert len(rows) == 1 + 25
        first = rows[1].split(",")
        assert first == ["0", "0", "0.0", "0.0", "0.0"]

    def test_distances_match_coordinates(self, capsys):
        _, out, _ = run_cli(capsys, "grid", "--interferers", "18")
        for row in data_lines(out)[1:]:
            _, _, x, y, dist = row.split(",")
            assert math.hypot(float(x), float(y)) == pytest.approx(float(dist), abs=1e-12)


class TestCir:
    def test_default_columns_and_grid(self, capsys):
        _, out, _ = run_cli(capsys, "cir", "--horizon", "0.5")
        rows = data_lines(out)
        assert rows[0] == "t_s,cir_tx0,cir_tx1"
        assert len(rows) == 1 + 50
        assert rows[-1].split(",")[0] == "0.5"

    def test_tx_index_selects_columns(self, capsys):
        _, out, _ = run_cli(capsys, "cir", "--horizon", "0.2", "--tx-index", "0", "--tx-index", "7")
        assert data_lines(out)[0] == "t_s,cir_tx0,cir_tx7"

    def test_tx_index_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "cir", "--tx-index", "99")
        assert code == 2
        assert "tx-index" in err


class TestAnalysisCommands:
    def test_detect_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, "detect", "--interferers", "6")
        rows = data_lines(out)
        assert rows[0] == "t_m_s,mu_s,cbar_sum,mu_n,theta_opt,theta_sub,threshold_set_size,sinr_worst"
        cells = rows[1].split(",")
        cfg = SystemConfig(n_interferers=6)
        summary = summarize(cfg.params(), cfg.geometry(), cfg.layout())
        spectrum = collapse_iui(summary.cbar)
        spec = characterize(summary.mu_s, spectrum, summary.mu_n)
        assert float(cells[1]) == pytest.approx(summary.mu_s, rel=1e-12)
        assert int(cells[4]) == spec.theta_opt
        assert float(cells[7]) == pytest.approx(spec.sinr_worst, rel=1e-12)

    def test_ber_sweep_matches_error_probs(self, capsys):
        _, out, _ = run_cli(capsys, "ber-sweep", "--interferers", "6", "--theta-max", "12")
        rows = data_lines(out)
        assert rows[0] == "theta,p,q,ber"
        assert len(rows) == 1 + 13
        cfg = SystemConfig(n_interferers=6)
        summary = summarize(cfg.params(), cfg.geometry(), cfg.layout())
        spectrum = collapse_iui(summary.cbar)
        for row in (rows[1], rows[8]):
            theta, p, q, ber = row.split(",")
            pair = perf.error_probs(int(theta), summary.mu_s, spectrum, summary.mu_n)
            assert float(p) == pytest.approx(pair.p, abs=1e-12)
            assert float(q) == pytest.approx(pair.q, abs=1e-12)
            assert float(ber) == pytest.approx(0.5 * (pair.p + pair.q), abs=1e-12)

    def test_are_sweep_axis_and_columns(self, capsys):
        _, out, _ = run_cli(
            capsys, "are-sweep", "--c-from", "0.2", "--c-to", "0.8", "--points", "5"
        )
        rows = data_lines(out)
        assert rows[0] == (
            "axis_value,theta_opt,theta_sub,p,q,ber,link_rate_bits,"
            "spatial_rate_per_m2,are_bits_per_m2,sinr_worst,truncation_warning"
        )
        assert len(rows) == 1 + 5
        assert float(rows[1].split(",")[0]) == pytest.approx(0.2)
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.8)
        assert rows[1].split(",")[-1] in {"true", "false"}

    def test_are_sweep_bad_range(self, capsys):
        code, _, _ = run_cli(capsys, "are-sweep", "--c-from", "0.5", "--c-to", "0.2")
        assert code == 2

    def test_grid_compare_covers_both_grids(self, capsys):
        _, out, _ = run_cli(
            capsys, "grid-compare", "--area-from", "0.03", "--area-to", "0.06", "--points", "2"
        )
        rows = data_lines(out)
        assert rows[0].startswith("grid,axis_value,")
        assert len(rows) == 1 + 4
        assert [row.split(",")[0] for row in rows[1:]] == ["hex", "hex", "square", "square"]
        hex_area = float(rows[1].split(",")[1])
        square_area = float(rows[3].split(",")[1])
        assert hex_area == square_area

    def test_optimize_radius_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, "optimize-radius", "--w-max", "3", "--interferers", "6")
        rows = data_lines(out)
        assert rows[0].startswith("s_opt_m,")
        s_opt, report = perf.optimize_radius(SystemConfig(n_interferers=6), w_max=3)
        cells = rows[1].split(",")
        assert float(cells[0]) == pytest.approx(s_opt, rel=1e-12)
        assert float(cells[5]) == pytest.approx(report.ber, rel=1e-12)


class TestValidationCommands:
    def test_mc_validate_best_row(self, capsys):
        _, out, _ = run_cli(capsys, "mc-validate", "--samples", "20000", "--theta-max", "30", "--seed", "5")
        rows = data_lines(out)
        assert rows[0] == "theta,ber_hat,stderr,p_hat,q_hat"
        assert len(rows) == 1 + 31 + 1
        curve = [row.split(",") for row in rows[1:-1]]
        best = rows[-1].split(",")
        assert "# best" in out.splitlines()
        best_ber = min(float(cells[1]) for cells in curve)
        assert float(best[1]) == best_ber

    def test_mc_validate_needs_no_atom_spectrum(self, capsys):
        # 200 interferers would collapse to about 1e22 atoms; sampling reads only the rings
        code, out, err = run_cli(capsys, "mc-validate", "--interferers", "200", "--samples", "1000")
        assert code == 0, err
        assert len(data_lines(out)) == 1 + 101 + 1

    def test_pbs_validate_trace(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "pbs-validate",
            "--t-sim", "0.5",
            "--realizations", "10",
            "--particles", "10",
        )
        rows = data_lines(out)
        assert rows[0] == "t_s,cir_hat,stderr"
        assert len(rows) == 1 + 50

    def test_pbs_validate_offset_site(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "pbs-validate",
            "--tx-index", "1",
            "--t-sim", "0.2",
            "--realizations", "5",
            "--particles", "5",
        )
        assert code == 0
        assert len(data_lines(out)) == 1 + 20

    @pytest.mark.parametrize(
        "argv",
        [
            ("mc-validate", "--mode", "semi-analytic", "--samples", "200000", "--seed", "3"),
            ("ber-sweep", "--theta-max", "200"),
        ],
    )
    def test_blas_threads_do_not_change_bytes(self, argv):
        # both commands reduce over more interference atoms (~1e4) than
        # OpenBLAS needs before it splits a dot product across threads
        src = os.path.dirname(os.path.dirname(os.path.abspath(mc_arelab.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-m", "mc_arelab.cli", *argv],
                env=env,
                capture_output=True,
                timeout=300,
                check=True,
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]

    def test_threads_do_not_change_bytes(self, capsys, monkeypatch):
        args = ("are-sweep", "--c-from", "0.2", "--c-to", "0.5", "--points", "4")
        monkeypatch.delenv("MC_ARELAB_THREADS", raising=False)
        _, serial, _ = run_cli(capsys, *args)
        monkeypatch.setenv("MC_ARELAB_THREADS", "3")
        _, threaded, _ = run_cli(capsys, *args)
        assert threaded == serial
