import csv
import io
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import mc_arelab
from mc_arelab import perf
from mc_arelab.channel import cir, summarize
from mc_arelab.cli import Table, _write_table, build_parser, cmd_cir, main
from mc_arelab.config import SystemConfig
from mc_arelab.detection import characterize


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

    def test_out_into_a_missing_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "grid", "--interferers", "6", "--out", str(tmp_path / "nope" / "grid.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "No such file" in err

    def test_closed_pipe_stops_quietly(self):
        # the trace is about 770 kB, far past a pipe's buffer, so the writer
        # is still writing when the reader closes after one line
        src = os.path.dirname(os.path.dirname(os.path.abspath(mc_arelab.__file__)))
        with subprocess.Popen(
            [sys.executable, "-m", "mc_arelab.cli", "cir", "--dt", "0.0001"],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b"# mc-arelab 0.1.0\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=300)
        assert (code, err) == (1, b"")

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

    def test_sites_of_one_ring_share_a_column_bit_for_bit(self, capsys, monkeypatch):
        # sites 1 and 5 lie on the first ring and cost one cir column; every
        # column keeps the bytes of a run that asks for its site alone
        widths = []

        def counting_cir(t, r_i, *args, **kwargs):
            widths.append(np.size(r_i))
            return cir(t, r_i, *args, **kwargs)

        monkeypatch.setattr("mc_arelab.cli.cir", counting_cir)
        _, out, _ = run_cli(capsys, "cir", "--tx-index", "1", "--tx-index", "5", "--tx-index", "14")
        assert widths == [2]
        rows = [line.split(",") for line in data_lines(out)[1:]]
        for k, site in enumerate((1, 5, 14)):
            _, alone, _ = run_cli(capsys, "cir", "--tx-index", str(site))
            assert [line.split(",")[1] for line in data_lines(alone)[1:]] == [row[1 + k] for row in rows]

    def test_sites_of_one_ring_share_one_column_object(self):
        # sites 1 and 5 lie on the first ring: one trace object, formatted once per block
        argv = ["cir", "--horizon", "0.5", "--tx-index", "1", "--tx-index", "5", "--tx-index", "14"]
        args = build_parser().parse_args(argv)
        columns, [(_, table)] = cmd_cir(SystemConfig(), args)
        assert columns == ("t_s", "cir_tx1", "cir_tx5", "cir_tx14")
        assert table.columns[1] is table.columns[2]
        assert table.columns[3] is not table.columns[1]

    def test_tx_index_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "cir", "--tx-index", "99")
        assert code == 2
        assert "tx-index" in err

    def test_failing_run_creates_no_out_file(self, capsys, tmp_path):
        path = tmp_path / "p"
        code, _, err = run_cli(capsys, "cir", "--tx-index", "999", "--out", str(path))
        assert code == 2
        assert "tx-index" in err
        assert not path.exists()

    def test_fine_trace_stays_small_in_memory(self, tmp_path):
        # 15,000 record times at 4 sites: the trace is 0.48 MB, and one more
        # copy of it with its time column (0.6 MB) would cross the bound
        argv = ["cir", "--record-every", "1", "--out", str(tmp_path / "trace.csv")]
        for site in (0, 1, 5, 12):
            argv += ["--tx-index", str(site)]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.6e6


class TestTable:
    VALUES = [0.0, -0.0, 5e-324, 1e-05, 0.009000000000000001, 1e16, 1.0]

    def test_bytes_match_csv_writer(self):
        # 700 rows: two full blocks of rows and a partial one
        first = np.resize(self.VALUES, 700)
        rest = np.column_stack([np.roll(first, 1), -np.roll(first, 3)])
        stream = io.StringIO()
        _write_table(stream, Table((first, *rest.T)))
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(np.column_stack([first, rest]).tolist())
        assert stream.getvalue() == expected.getvalue()
        firsts = [line.split(",")[0] for line in stream.getvalue().splitlines()[:7]]
        assert firsts == ["0.0", "-0.0", "5e-324", "1e-05", "0.009000000000000001", "1e+16", "1.0"]

    def test_tuples_of_floats_are_columns(self):
        stream = io.StringIO()
        _write_table(stream, Table((tuple(self.VALUES), tuple(self.VALUES[::-1]))))
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows(zip(self.VALUES, self.VALUES[::-1]))
        assert stream.getvalue() == expected.getvalue()

    def test_a_repeated_column_writes_the_bytes_of_copies(self):
        # 600 rows, three blocks: one column object in three positions, as the
        # sites of one ring share a cir trace, against three separate copies
        shared = np.resize(self.VALUES, 600)
        other = -np.roll(shared, 2)
        stream, copies = io.StringIO(), io.StringIO()
        _write_table(stream, Table((shared, other, shared, shared)))
        _write_table(copies, Table((shared.copy(), other, shared.copy(), shared.copy())))
        assert stream.getvalue() == copies.getvalue()
        assert stream.getvalue().splitlines()[1] == "-0.0,-0.009000000000000001,-0.0,-0.0"

    def test_int_and_str_columns_match_csv_writer(self):
        # 600 rows of int arrays and tuples, floats, and str cells, as the sweep tables mix them
        n = 600
        ints = np.arange(-3, n - 3) * 7**19
        grids = tuple(("hex", "square", "false")[i % 3] for i in range(n))
        floats = np.resize(self.VALUES, n)
        unsigned = np.arange(n, dtype=np.uint32)
        stream = io.StringIO()
        _write_table(stream, Table((grids, ints, floats, tuple(range(n)), unsigned)))
        expected = io.StringIO()
        rows = zip(grids, ints.tolist(), floats.tolist(), range(n), unsigned.tolist())
        csv.writer(expected, lineterminator="\n").writerows(rows)
        assert stream.getvalue() == expected.getvalue()
        assert stream.getvalue().splitlines()[10] == "square,79792266297612001,1e-05,10,10"


class TestAnalysisCommands:
    def test_detect_matches_library(self, capsys):
        _, out, _ = run_cli(capsys, "detect", "--interferers", "6")
        rows = data_lines(out)
        assert rows[0] == "t_m_s,mu_s,cbar_sum,mu_n,theta_opt,theta_sub,threshold_set_size,sinr_worst"
        cells = rows[1].split(",")
        cfg = SystemConfig(n_interferers=6)
        summary = summarize(cfg.params(), cfg.geometry(), cfg.layout())
        spec = characterize(summary.mu_s, summary.cbar, summary.mu_n)
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
        for row in (rows[1], rows[8]):
            theta, p, q, ber = row.split(",")
            pair = perf.error_probs(int(theta), summary.mu_s, summary.cbar, summary.mu_n)
            assert float(p) == pytest.approx(pair.p, abs=1e-12)
            assert float(q) == pytest.approx(pair.q, abs=1e-12)
            assert float(ber) == pytest.approx(0.5 * (pair.p + pair.q), abs=1e-12)

    def test_wide_ber_sweep_builds_no_further_than_the_support(self, count_builds, tmp_path):
        # past the law's support the curves hold their last value, so the
        # pmfs stop there whatever --theta-max asks for
        out = tmp_path / "wide.csv"
        assert main(["ber-sweep", "--theta-max", "50000", "--out", str(out)]) == 0
        cfg = SystemConfig()
        summary = summarize(cfg.params(), cfg.geometry(), cfg.layout())
        lam = summary.mu_n + summary.cbar_sum + summary.mu_s
        support = math.ceil(lam + 40.0 / 3.0 + math.sqrt(40.0**2 / 9.0 + 2.0 * 40.0 * lam))
        assert len(count_builds) == 1
        assert count_builds[0] <= support
        assert len(data_lines(out.read_text())) == 1 + 50_001

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

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("are-sweep", "--c-to", "inf"), "--c-to"),
            (("are-sweep", "--c-from=-inf"), "--c-from"),
            (("grid-compare", "--area-to", "inf"), "--area-to"),
            (("grid-compare", "--area-from", "nan"), "--area-from"),
        ],
    )
    def test_sweep_axis_ends_must_be_finite(self, capsys, argv, flag):
        # an infinite end would reach the axis spacing, which warns and
        # then hands an infinite pitch to the configuration
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: {flag} must be finite" in err

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

    def test_many_interferers_need_no_atom_spectrum(self, capsys):
        # 200 interferers would collapse to about 1e22 atoms; the count
        # distribution reads only the rings
        for argv, n_rows in (
            (("are-sweep", "--points", "3"), 3),
            (("grid-compare", "--points", "3"), 6),
            (("ber-sweep",), 101),
        ):
            code, out, err = run_cli(capsys, *argv, "--interferers", "200")
            assert code == 0, err
            assert len(data_lines(out)) == 1 + n_rows
        # the threshold set reads the count distribution too, where the
        # atoms would number 9618578117517254114047
        code, out, err = run_cli(capsys, "detect", "--interferers", "200")
        assert code == 0, err
        cells = dict(zip(*(row.split(",") for row in data_lines(out))))
        assert cells["threshold_set_size"] == "1"

    @pytest.mark.parametrize("grid", ["hex", "square"])
    def test_detect_builds_no_atoms(self, capsys, monkeypatch, grid):
        def refuse(*args, **kwargs):
            raise AssertionError("collapse_iui called")

        monkeypatch.setattr("mc_arelab.detection.collapse_iui", refuse)
        code, out, err = run_cli(capsys, "detect", "--grid", grid)
        assert code == 0, err
        assert len(data_lines(out)) == 2

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
        # both commands sum more terms (about 13,000 tally-tree leaves at
        # 200,000 samples, or a few hundred count probabilities per output)
        # than OpenBLAS needs before it splits a dot product across threads
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
        # pbs-validate and both mc-validate modes run serially, so the
        # setting must not reach them either
        for args in (
            ("are-sweep", "--c-from", "0.2", "--c-to", "0.5", "--points", "4"),
            ("optimize-radius", "--noise", "10", "--c", "1.0"),
            ("pbs-validate", "--realizations", "250", "--particles", "10", "--t-sim", "1"),
            ("mc-validate", "--mode", "semi-analytic", "--samples", "250000"),
            ("mc-validate", "--mode", "stochastic", "--samples", "250000"),
        ):
            monkeypatch.delenv("MC_ARELAB_THREADS", raising=False)
            _, serial, _ = run_cli(capsys, *args)
            monkeypatch.setenv("MC_ARELAB_THREADS", "3")
            _, threaded, _ = run_cli(capsys, *args)
            assert threaded == serial, args

    def test_pbs_validate_starts_no_thread_and_ignores_the_setting(self, capsys, monkeypatch):
        # benchmark-sized chunks: 200 realizations of 100 particles, one chunk
        def refuse(thread):
            raise AssertionError(f"pbs-validate started a thread: {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        args = ("pbs-validate", "--tx-index", "1", "--realizations", "200", "--t-sim", "4", "--seed", "7")
        outputs = []
        for threads in (None, "1", "2"):
            if threads is None:
                monkeypatch.delenv("MC_ARELAB_THREADS", raising=False)
            else:
                monkeypatch.setenv("MC_ARELAB_THREADS", threads)
            code, out, _ = run_cli(capsys, *args)
            assert code == 0
            outputs.append(out)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize(
        "argv, span",
        [(("pbs-validate", "--t-sim", "0.005"), "t_sim"), (("cir", "--horizon", "0.005"), "horizon")],
    )
    def test_span_shorter_than_one_record_step(self, capsys, argv, span):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert span in err and "record step of 0.01" in err

    @pytest.mark.parametrize(
        "argv, span, step",
        [
            (("cir", "--dt", "1e-300"), "horizon", "1e-299"),
            (("cir", "--horizon", "1e300"), "horizon", "0.01"),
            (("pbs-validate", "--dt", "1e-300"), "t_sim", "1e-299"),
            (("pbs-validate", "--dt", "5e-324"), "t_sim", "5e-323"),
        ],
    )
    def test_span_of_more_records_than_an_array_holds(self, capsys, argv, span, step):
        # each grid here is past the array size limit, so nothing is allocated
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{span} = " in err and f"record steps of {step} s" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("detect", "--noise", "1e300"), "mu_n = "),
            (("detect", "--nmol", str(10**30)), "mu_s = "),
            (("optimize-radius", "--noise", "1e300"), "mu_n = "),
            (("are-sweep", "--noise", "1e300"), "mu_n = "),
            (("ber-sweep", "--theta-max", str(10**30)), "theta_max = "),
            (("mc-validate", "--mode", "semi-analytic", "--theta-max", str(10**30)), "theta_max = "),
            (("mc-validate", "--theta-max", str(10**30)), "theta_max = "),
        ],
    )
    def test_counts_past_what_an_array_or_a_poisson_draw_holds(self, capsys, argv, name):
        # each value fails its check before anything of its size is allocated
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("are-sweep", "--points", str(10**20)), "--points = "),
            (("grid-compare", "--points", str(10**20)), "--points = "),
            (("optimize-radius", "--w-max", str(10**20)), "w_max = "),
        ],
    )
    def test_sweep_sizes_past_what_an_array_holds(self, capsys, argv, name):
        # rejected before the axis values or the radii are formed
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and name in err and "past what an array can index" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, step",
        [
            # the peak near 2.5 s falls between two scan points
            (("detect", "--horizon", "1e300"), "1e+297 s apart"),
            # the pulse passes at about 5e-7 s, inside the first scan step
            (("detect", "--v", "1e6"), "0.015 s apart"),
            # the horizon ends before the pulse arrives
            (("detect", "--horizon", "0.01"), "1e-05 s apart"),
        ],
    )
    def test_a_scan_that_misses_the_peak_names_its_step(self, capsys, argv, step):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert step in err
        assert "past the horizon" in err and "between two scan points" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("horizon", ["1e308", "5e-324", "1e-320"])
    def test_a_scan_grid_past_the_normal_floats_names_the_horizon(self, capsys, horizon):
        # the grids overflow, underflow to 0 and hold subnormals; each fails
        # its check before it is formed, so no RuntimeWarning (an error
        # under this suite's warning filter) is raised
        code, out, err = run_cli(capsys, "detect", "--horizon", horizon)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "search_horizon must lie in" in err and err.rstrip().endswith(f"got {float(horizon)!r}")
        # no array dump
        assert len(err) < 300 and "inf" not in err

    def test_semi_analytic_mode_draws_no_poisson_count(self, capsys):
        code, out, err = run_cli(capsys, "mc-validate", "--mode", "semi-analytic", "--samples", "10", "--noise", "1e300")
        assert code == 0, err
        assert len(data_lines(out)) == 1 + 101 + 1

    @pytest.mark.parametrize("mode", ["stochastic", "semi-analytic"])
    def test_a_noise_mean_past_any_poisson_draw_clips_every_count(self, capsys, mode):
        # every count is at least theta_max, so every threshold says 1
        code, out, err = run_cli(capsys, "mc-validate", "--mode", mode, "--samples", "10", "--noise", "1e300")
        assert code == 0, err
        lines = data_lines(out)
        assert len(lines) == 1 + 101 + 1
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert float(row["p_hat"]) == 1.0 and float(row["q_hat"]) == 0.0, line
