import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from vgsolve import cli, engine, geometry
from vgsolve.cli import main
from vgsolve.engine import assemble_jacobian
from vgsolve.geometry import fundamental_assignment, random_generic_configuration
from vgsolve.graph import parse_edge_list

TRIANGLE = "0 1\n1 2\n0 2\n"
SQUARE = "0 1\n1 2\n2 3\n3 0\n"
BOWTIE = "0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"
# the mine 5 witness: solvable, and decided by the rank test (no triangle)
K23 = "0 2\n1 2\n0 3\n1 3\n0 4\n1 4\n"


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text(TRIANGLE)
    return str(p)


@pytest.fixture
def k23_file(tmp_path):
    p = tmp_path / "k23.txt"
    p.write_text(K23)
    return str(p)


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.txt"
    p.write_text(SQUARE)
    return str(p)


def test_check_solvable_exit_zero(triangle_file, capsys):
    assert main(["check", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "finite solvable" in out


def test_check_unsolvable_exit_one(square_file, capsys):
    assert main(["check", square_file]) == 1
    assert "NOT finite solvable" in capsys.readouterr().out


def test_check_malformed_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("0 x\n")
    assert main(["check", str(p)]) == 2
    assert "error" in capsys.readouterr().err


def test_check_missing_file_exit_two(capsys):
    assert main(["check", "/nonexistent/graph.txt"]) == 2


def test_check_beyond_column_cap_exit_two(square_file, monkeypatch, capsys):
    # the square's 59 x 48 system stands in for one too large to decide
    monkeypatch.setattr(engine, "_DENSE_SVD_MAX_ENTRIES", 0)
    monkeypatch.setattr(engine, "_DENSE_EIG_MAX_COLS", 47)
    assert main(["check", square_file]) == 2
    captured = capsys.readouterr()
    assert "59x48" in captured.err and captured.out == ""


def test_check_json_schema(k23_file, capsys):
    assert main(["--format", "json", "check", k23_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["finite_solvable"] is True
    assert payload["rank_jp"] == 40
    assert payload["expected_rank"] == 40
    # the first of the five default seeds decides
    assert payload["seeds"] == [engine.derive_seeds()[0]]
    assert payload["agreement"] == [True]
    assert payload["sigma_min"] > 0
    assert payload["tolerance"] == 1e-8
    assert payload["path"] == "float"


def test_check_certified_graph_json_and_text(triangle_file, capsys):
    assert main(["--format", "json", "check", triangle_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["finite_solvable"] is True
    assert payload["rank_jp"] == payload["expected_rank"] == 18
    assert payload["path"] == "certificate"
    assert payload["sigma_min"] is None and payload["sigma_max"] is None
    assert payload["seeds"] == [] and payload["agreement"] == []
    assert main(["check", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "sigma_min/sigma_max: n/a (growth certificate)" in out
    assert "seeds: [] agreement: []" in out


def test_check_exact_path_text(k23_file, monkeypatch, capsys):
    # every seed inside the ambiguity band: the GF(p) rank decides
    low_spectrum = engine._low_spectrum

    def banded(J, need):
        s, smax, V = low_spectrum(J, need)
        s = s.copy()
        s[0] = engine.DEFAULT_TOLERANCE * smax
        return s, smax, V

    monkeypatch.setattr(engine, "_low_spectrum", banded)
    assert main(["--seeds", "1,2", "check", k23_file]) == 0
    out = capsys.readouterr().out
    assert "no seed decisive: decided by the exact GF(p) rank" in out
    assert "rank: 40 (expected 40)" in out
    assert "seeds: [1, 2] agreement: [False, False]" in out


def _trajectory_text(n, k):
    """Cameras along a path linked to their k nearest successors, minus every
    link across the middle camera: two certified halves sharing one camera."""
    split = n // 2
    return "".join(f"{i} {j}\n" for i in range(n) for j in range(i + 1, min(n, i + k + 1))
                   if not i < split < j)


def test_check_multi_block_graph_text_and_json(tmp_path, capsys):
    p = tmp_path / "trajectory.txt"
    p.write_text(_trajectory_text(60, 6))
    assert main(["--format", "json", "check", str(p)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["finite_solvable"] is False
    assert payload["rank_jp"] == payload["expected_rank"] - 4 == 641
    assert payload["path"] == "blocks"
    assert payload["sigma_min"] is None and payload["sigma_max"] is None
    assert payload["seeds"] == [] and payload["agreement"] == []
    assert main(["check", str(p)]) == 1
    out = capsys.readouterr().out
    assert "verdict: NOT finite solvable" in out
    assert "rank: 641 (expected 645)" in out
    assert "sigma_min/sigma_max: n/a (decided by its 2 biconnected blocks)" in out


def test_closed_output_pipe_is_no_error(tmp_path):
    # the partition of a 3000-node path is far longer than a pipe buffer, so
    # the reader closes the pipe while the command still writes
    p = tmp_path / "path.txt"
    p.write_text("".join(f"{v} {v + 1}\n" for v in range(2999)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen([sys.executable, "-m", "vgsolve", "components", str(p)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"2999 component(s)\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (0, b"")


def test_check_json_deterministic_modulo_timing(triangle_file, capsys):
    main(["--format", "json", "check", triangle_file])
    first = json.loads(capsys.readouterr().out)
    main(["--format", "json", "check", triangle_file])
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time")
    second.pop("wall_time")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_check_custom_seeds_and_tolerance(k23_file, capsys):
    assert main(["--seeds", "1,2,3", "--tolerance", "1e-9",
                 "--format", "json", "check", k23_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seeds"] == [1]
    assert payload["agreement"] == [True]
    assert payload["tolerance"] == 1e-9


def test_check_export_matrix(triangle_file, tmp_path, capsys):
    out = tmp_path / "out.mtx"
    assert main(["check", triangle_file, "--export-matrix", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("%%MatrixMarket")
    capsys.readouterr()
    # the first seed's system, as the library assembles it
    assert main(["--seeds", "5", "check", triangle_file, "--export-matrix", str(out)]) == 0
    g = parse_edge_list(TRIANGLE)
    cfg = random_generic_configuration(g, 5)
    expected = assemble_jacobian(g, cfg, fundamental_assignment(g, cfg)).matrix
    back = sp.csr_matrix(scipy.io.mmread(str(out)))
    back.sort_indices()
    expected.sort_indices()
    assert back.shape == expected.shape
    assert np.array_equal(back.indptr, expected.indptr)
    assert np.array_equal(back.indices, expected.indices)
    assert np.allclose(back.data, expected.data, rtol=1e-14, atol=0)
    capsys.readouterr()


def test_check_export_matrix_of_certified_graph_assembles_once(triangle_file, tmp_path,
                                                               monkeypatch, capsys):
    calls = []
    assemble = engine.assemble_jacobian

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(engine, "assemble_jacobian", counted)
    out = tmp_path / "out.mtx"
    assert main(["check", triangle_file, "--export-matrix", str(out)]) == 0
    assert out.read_text().startswith("%%MatrixMarket")
    assert calls == [1]
    capsys.readouterr()


def _reject_tolerance(tolerance, path, capsys, monkeypatch):
    # rejected while the arguments are parsed: no graph read, no minors
    calls = []
    minors = geometry._fundamental_minors

    def counted(*args, **kwargs):
        calls.append(1)
        return minors(*args, **kwargs)

    monkeypatch.setattr(geometry, "_fundamental_minors", counted)
    with pytest.raises(SystemExit) as exc:
        main(["--tolerance", tolerance, "check", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance" in captured.err
    assert calls == []


def test_check_nan_tolerance_exit_two(triangle_file, capsys, monkeypatch):
    _reject_tolerance("nan", triangle_file, capsys, monkeypatch)


@pytest.mark.parametrize("tolerance", ["inf", "1", "2", "0", "-1e-8", "x"])
def test_check_tolerance_outside_unit_interval_exit_two(tolerance, tmp_path, capsys, monkeypatch):
    # the graph file does not exist: the flag is refused before it is read
    _reject_tolerance(tolerance, str(tmp_path / "absent.txt"), capsys, monkeypatch)


def test_components_triangle(triangle_file, capsys):
    assert main(["components", triangle_file]) == 0
    assert "1 component(s)" in capsys.readouterr().out


def test_components_bowtie_json(tmp_path, capsys):
    p = tmp_path / "bowtie.txt"
    p.write_text(BOWTIE)
    assert main(["--format", "json", "components", str(p)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["components"]) == 2
    assert payload["components"][0]["nodes"] == [0, 1, 2]
    assert payload["components"][1]["nodes"] == [2, 3, 4]
    assert payload["assignment"] == [0, 0, 0, 1, 1, 1]


def test_components_square(square_file, capsys):
    assert main(["components", square_file]) == 0
    assert "4 component(s)" in capsys.readouterr().out


# finite solvable, but the first kernel pass of components lands inside the
# ambiguity band (sigma_min / sigma_max = 2.2e-9): only the GF(p) rank
# (228 = 12n) decides it
IN_BAND_SOLVABLE = "".join(f"{i} {j}\n" for i, j in (
    (2, 6), (2, 8), (8, 14), (3, 7), (15, 16), (1, 5), (4, 6), (14, 16), (3, 11), (3, 10),
    (5, 18), (0, 8), (17, 18), (7, 18), (3, 9), (9, 14), (8, 10), (6, 11), (12, 13), (2, 5),
    (13, 14), (14, 18), (8, 16), (10, 15), (0, 17), (8, 13), (1, 18), (0, 4), (4, 12)))


def test_components_agree_with_check_inside_band(tmp_path, capsys):
    p = tmp_path / "in_band.txt"
    p.write_text(IN_BAND_SOLVABLE)
    assert main(["check", str(p)]) == 0
    assert "exact GF(p) rank" in capsys.readouterr().out
    assert main(["components", str(p)]) == 0
    assert capsys.readouterr().out.startswith("1 component(s)\n")


def test_mine_text_and_csv(capsys):
    assert main(["mine", "5"]) == 0
    assert "2 candidates, 1 finite solvable" in capsys.readouterr().out
    assert main(["--format", "csv", "mine", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,edge_target,candidates,fin_solv"
    assert lines[1] == "5,6,2,1"


def test_mine_witnesses_dir(tmp_path, capsys):
    outdir = tmp_path / "wit"
    assert main(["mine", "4", "--witnesses-dir", str(outdir)]) == 0
    files = sorted(outdir.iterdir())
    assert len(files) == 1
    assert files[0].read_text().count("\n") == 5
    capsys.readouterr()


def test_mine_json(capsys):
    assert main(["--format", "json", "mine", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["candidates"] == 1
    assert payload["fin_solv"] == 1
    assert len(payload["witnesses"]) == 1


def test_sweep_csv(capsys):
    assert main(["--format", "csv", "--seeds", "11", "sweep", "8", "100", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("n,density_percent,samples,fin_solv_count,"
                        "component_count_min,component_count_max,seed")
    assert lines[1] == "8,100.0,2,2,1,1,11"


def test_sweep_errors(capsys):
    assert main(["sweep", "10", "0", "5"]) == 2


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_threads_below_one_rejected(threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", threads, "mine", "5"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv,bad", [
    (["--threads", "two", "mine", "5"], "'two'"),
    (["--tolerance", "x", "check", "absent.txt"], "'x'"),
])
def test_non_numeric_flag_message_is_plain(argv, bad, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert bad in err
    assert "_positive_int" not in err and "_unit_interval" not in err


@pytest.mark.parametrize("threads", ["0", "-3", "abc"])
def test_threads_env_validated_like_flag(threads, monkeypatch, capsys):
    monkeypatch.setenv("VGSOLVE_THREADS", threads)
    with pytest.raises(SystemExit) as exc:
        main(["mine", "5"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3", "abc"])
def test_bad_threads_env_is_named(threads, monkeypatch, capsys):
    monkeypatch.setenv("VGSOLVE_THREADS", threads)
    with pytest.raises(SystemExit) as exc:
        main(["mine", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "VGSOLVE_THREADS" in err and f"got {threads!r}" in err
    assert "argument --threads" not in err


def test_bad_threads_flag_keeps_its_message(monkeypatch, capsys):
    # the flag wins over a valid variable, and its error names only the flag
    monkeypatch.setenv("VGSOLVE_THREADS", "2")
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "abc", "mine", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --threads: must be an integer of at least 1, got 'abc'" in err
    assert "VGSOLVE_THREADS" not in err


def test_threads_env_sets_the_default(monkeypatch, capsys):
    seen = []
    mine_minimal = cli.mine_minimal

    def recording(n, tolerance, threads):
        seen.append(threads)
        return mine_minimal(n, tolerance=tolerance, threads=threads)

    monkeypatch.setattr(cli, "mine_minimal", recording)
    monkeypatch.setenv("VGSOLVE_THREADS", "3")
    assert main(["mine", "5"]) == 0
    monkeypatch.delenv("VGSOLVE_THREADS")
    assert main(["mine", "5"]) == 0
    assert seen == [3, 1]
    capsys.readouterr()


def test_dims_text(square_file, capsys):
    assert main(["dims", square_file]) == 0
    out = capsys.readouterr().out
    assert "59 rows x 48 columns" in out


def test_dims_json(square_file, capsys):
    assert main(["--format", "json", "dims", square_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e3"] == 59
    assert payload["v3"] == 48
    assert payload["e2"] == 63
    assert payload["v12"] == 64


def test_csv_rejected_for_check(triangle_file, capsys):
    assert main(["--format", "csv", "check", triangle_file]) == 2
