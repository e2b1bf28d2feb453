import json
import math
import subprocess
import sys

import numpy as np
import pytest

from polyroute.cli import EXIT_BOUND, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from polyroute.polytope import load_off
from polyroute.tables import deserialize


@pytest.fixture()
def tetra_off(tmp_path):
    path = tmp_path / "tetra.off"
    assert main(["gen", "tetra", "--out", str(path)]) == EXIT_OK
    return str(path)


@pytest.fixture()
def tetra_prt(tmp_path, tetra_off):
    path = tmp_path / "tetra.prt"
    rc = main(["preprocess", tetra_off, "--eps", "0.5", "--out", str(path)])
    assert rc == EXIT_OK
    return str(path)


def test_gen_tetra(tetra_off):
    mesh = load_off(open(tetra_off).read())
    assert mesh.n == 4


def test_gen_sphere_validates(tmp_path):
    path = tmp_path / "s.off"
    assert main(["gen", "sphere", "--n", "100", "--seed", "7", "--out", str(path)]) == EXIT_OK
    mesh = load_off(open(path).read())
    assert mesh.n == 100
    assert len({tuple(v) for v in mesh.vertices.tolist()}) == 100


def test_gen_sphere_too_small_errors(capsys):
    assert main(["gen", "sphere", "--n", "3"]) == EXIT_VALIDATION
    assert "error" in capsys.readouterr().err


def test_validate_reports_both_theta_readings(tetra_off, capsys):
    # the per-face reading equals the vertex-fan reading (pi/6 on the regular
    # tetrahedron), so validate reports the one value
    assert main(["validate", tetra_off, "--eps", "0.5", "--json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta_m_face"] == pytest.approx(math.pi / 6)
    assert "theta_m_vertex_fan" not in doc
    assert doc["patches"] == 4
    assert "max_normal_cone_width" in doc


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.off"
    bad.write_text("OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert main(["validate", str(bad)]) == EXIT_VALIDATION


def test_missing_file_is_io_error(capsys):
    assert main(["validate", "/nonexistent/mesh.off"]) == EXIT_IO


def test_preprocess_summary(tetra_off, tmp_path, capsys):
    out = tmp_path / "t.prt"
    rc = main(["preprocess", tetra_off, "--eps", "0.5", "--out", str(out), "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["patches"] == 4
    assert doc["representatives"] == 4
    assert doc["table_bytes"] == out.stat().st_size
    assert doc["wall_time_s"] >= 0
    assert doc["stats"]["total_s"] <= doc["wall_time_s"] + 1e-4
    assert doc["stats"]["theta_pairs"] > 0
    assert doc["stats"]["lift_pairs"] >= doc["stats"]["steiner_nodes"]


def test_preprocess_cube_six_patches(tmp_path, capsys):
    off = tmp_path / "cube.off"
    main(["gen", "cube", "--out", str(off)])
    capsys.readouterr()
    prt = tmp_path / "c.prt"
    rc = main(["preprocess", str(off), "--eps", "0.5", "--out", str(prt), "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["patches"] == 6
    # the ball records the `.prt` stores, after the intra-face prune
    balls = deserialize(prt.read_bytes()).scheme.exact_next
    assert doc["ball_entries"] == sum(map(len, balls.values())) > 0


def test_route_trace(tetra_prt, capsys):
    rc = main(["route", tetra_prt, "--from", "0", "--to", "3", "--trace"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "hop_index vertex_id case edge_length"
    assert lines[-1].startswith("summary 0 3 1 ")


def test_route_oracle_ratio(tetra_prt, capsys):
    rc = main(["route", tetra_prt, "--from", "0", "--to", "2",
               "--oracle", "--subdiv", "4", "--json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["hops"] == 1
    assert doc["stretch"] == pytest.approx(1.0)


def test_route_unknown_vertex(tetra_prt, capsys):
    assert main(["route", tetra_prt, "--from", "0", "--to", "99"]) == EXIT_VALIDATION


def test_bench_zero_pairs_header_only(tetra_prt, capsys):
    rc = main(["bench", tetra_prt, "--pairs", "0", "--subdiv", "4"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out == "pair_id,s,t,route_len,oracle_len,euclid,bound,ratio\n"


def test_bench_tetra_all_ratios_one(tetra_prt, capsys):
    rc = main(["bench", tetra_prt, "--pairs", "20", "--seed", "0", "--subdiv", "4"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().split("\n")
    for line in out[1:]:
        assert float(line.split(",")[-1]) == pytest.approx(1.0)


def test_bench_json_reports_route_time(tetra_prt, capsys):
    # the summary on stderr adds route time and stretch percentiles; the CSV
    # on stdout keeps its columns
    rc = main(["bench", tetra_prt, "--pairs", "20", "--seed", "0", "--subdiv", "0", "--json"])
    assert rc == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("pair_id,s,t,route_len,oracle_len,euclid,bound,ratio\n")
    summary = json.loads(captured.err.strip().splitlines()[-1])
    for key in ("route_ms_p50", "us_per_hop", "stretch_p50", "stretch_p95"):
        assert summary[key] > 0, key
    assert summary["stretch_p50"] <= summary["stretch_p95"]


def test_bench_deterministic(tetra_prt, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["bench", tetra_prt, "--pairs", "10", "--seed", "3",
          "--subdiv", "4", "--out", str(a)])
    main(["bench", tetra_prt, "--pairs", "10", "--seed", "3",
          "--subdiv", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_spanner_dump_flag(tetra_off, tmp_path):
    dump = tmp_path / "spanner.txt"
    rc = main(["preprocess", tetra_off, "--eps", "0.5",
               "--out", str(tmp_path / "x.prt"), "--dump-spanner", str(dump)])
    assert rc == EXIT_OK
    text = dump.read_text()
    assert "node 0 rep" in text
    assert "edge " in text


def test_console_script_smoke(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "polyroute.cli", "gen", "octa"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert out.stdout.startswith("OFF\n6 8 12")

