"""CLI behaviour: subcommands, formats, exit codes, closed loops."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morseshell.catalog import (
    boundary_sphere,
    moebius_kantor_torus,
    untileable_wheel,
)
from morseshell.cli import main
from morseshell.generators import shell_surface

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_complex(tmp_path, K, name="complex.json"):
    path = tmp_path / name
    path.write_text(json.dumps(K.to_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The CLI in a fresh interpreter, so an escaping exception shows as a
    traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "morseshell.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def test_betti_command(tmp_path, capsys):
    path = write_complex(tmp_path, moebius_kantor_torus())
    code, out, _ = run(capsys, "betti", "--complex", path)
    assert code == 0
    data = json.loads(out)
    assert data["betti_mod2"] == [1, 2, 1]
    assert data["euler_characteristic"] == 0


def test_shell_surface_then_verify_and_inequalities(tmp_path, capsys):
    cpath = write_complex(tmp_path, moebius_kantor_torus())
    spath = str(tmp_path / "shelling.json")
    code, out, _ = run(capsys, "shell-surface", "--complex", cpath,
                       "--out", spath)
    assert code == 0
    assert json.loads(out)["tiles"] == 14

    code, out, _ = run(capsys, "verify-shelling", "--tiling", spath)
    assert code == 0
    assert json.loads(out)["valid"] is True

    code, out, _ = run(capsys, "inequalities", "--complex", cpath,
                       "--tiling", spath)
    assert code == 0
    data = json.loads(out)
    assert data["betti_mod2"] == [1, 2, 1]
    assert data["betti_bounded"] and data["euler_equality"]


def test_field_vpath_morse_function_loop(tmp_path, capsys):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    spath = str(tmp_path / "shelling.json")
    assert run(capsys, "shell-surface", "--complex", cpath, "--out", spath)[0] == 0

    fpath = str(tmp_path / "field.json")
    code, out, _ = run(capsys, "field", "--tiling", spath, "--out", fpath)
    assert code == 0
    assert json.loads(out)["valid"] is True

    code, out, _ = run(capsys, "vpath-check", "--field", fpath,
                       "--tiling", spath)
    assert code == 0
    assert json.loads(out)["acyclic"] is True

    mpath = str(tmp_path / "morse.json")
    code, out, _ = run(capsys, "morse-function", "--tiling", spath,
                       "--out", mpath)
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True and data["gradient_matches"] is True
    rows = json.loads(open(mpath).read())
    assert all(len(r) == 3 for r in rows)


def test_shell_surface_start_flag(tmp_path, capsys):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    spath = str(tmp_path / "shelling.json")
    code, out, _ = run(capsys, "shell-surface", "--complex", cpath,
                       "--start", "1,2,3", "--out", spath)
    assert code == 0
    data = json.loads(open(spath).read())
    assert data["tiles"][0]["closure"] == [1, 2, 3]
    code, _, err = run(capsys, "shell-surface", "--complex", cpath,
                       "--start", "0,1,9")
    assert code == 1


def test_search_shelling_negative(tmp_path, capsys):
    path = write_complex(tmp_path, untileable_wheel())
    code, out, _ = run(capsys, "search-shelling", "--complex", path)
    assert code == 1
    assert json.loads(out)["status"] == "none"


def test_search_shelling_positive_loop(tmp_path, capsys):
    path = write_complex(tmp_path, boundary_sphere(3))
    spath = str(tmp_path / "found.json")
    code, out, _ = run(capsys, "search-shelling", "--complex", path,
                       "--out", spath)
    assert code == 0
    assert run(capsys, "verify-shelling", "--tiling", spath)[0] == 0


def test_subdivide_and_skeleton_loop(tmp_path, capsys):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    spath = str(tmp_path / "shelling.json")
    run(capsys, "shell-surface", "--complex", cpath, "--out", spath)

    dpath = str(tmp_path / "subdivided.json")
    code, out, _ = run(capsys, "subdivide", "--tiling", spath,
                       "--iterations", "1", "--out", dpath)
    assert code == 0
    assert json.loads(out)["tiles"] == 24
    assert run(capsys, "verify-shelling", "--tiling", dpath)[0] == 0

    kpath = str(tmp_path / "skeleton.json")
    code, out, _ = run(capsys, "skeleton", "--tiling", spath, "--n", "1",
                       "--out", kpath)
    assert code == 0
    assert run(capsys, "verify-shelling", "--tiling", kpath)[0] == 0


def test_subdivide_cap(tmp_path, capsys):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    spath = str(tmp_path / "shelling.json")
    run(capsys, "shell-surface", "--complex", cpath, "--out", spath)
    code, _, err = run(capsys, "subdivide", "--tiling", spath,
                       "--iterations", "12")
    assert code == 2
    assert "cap" in err


def test_hcounts_and_pack(tmp_path, capsys):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    spath = str(tmp_path / "shelling.json")
    run(capsys, "shell-surface", "--complex", cpath, "--out", spath)

    code, out, _ = run(capsys, "hcounts", "--tiling", spath)
    assert code == 0
    data = json.loads(out)
    assert data["vertex_identity_holds"] is True

    code, out, _ = run(capsys, "pack", "--tiling", spath)
    assert code == 0
    data = json.loads(out)
    assert data["pairwise_vertex_disjoint"] is True
    assert data["meets_lower_bound"] is True


def test_handle_and_prism_loop(tmp_path, capsys):
    hpath = str(tmp_path / "handle.json")
    code, out, _ = run(capsys, "handle", "--n", "3", "--variant", "co-handle",
                       "--out", hpath)
    assert code == 0
    assert json.loads(out)["critical_vector"] == [0, 0, 1, 0]
    assert run(capsys, "verify-shelling", "--tiling", hpath)[0] == 0

    code, out, _ = run(capsys, "prism", "--n", "4")
    assert code == 0
    assert json.loads(out)["maximal_simplices"] == 4


def test_word_reduce_command(capsys):
    code, out, _ = run(capsys, "word-reduce", "uuuddd")
    assert code == 0
    data = json.loads(out)
    assert data["subdivisions"] == 1
    assert data["result"] == "dduudu"
    code, _, err = run(capsys, "word-reduce", "uuuuud")
    assert code == 1


def test_tile_info(capsys):
    code, out, _ = run(capsys, "tile-info", "--n", "3", "--k", "2", "--l", "1")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "critical" and data["index"] == 2
    assert data["chi"] == 1


def test_malformed_json_names_byte_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "maximal_simplices": [[0,1]')
    code, _, err = run(capsys, "betti", "--complex", str(bad))
    assert code == 2
    assert "byte" in err


def test_text_format(tmp_path, capsys):
    path = write_complex(tmp_path, boundary_sphere(3))
    code, out, _ = run(capsys, "betti", "--complex", path,
                       "--format", "text")
    assert code == 0
    assert "betti_mod2" in out and "{" not in out.splitlines()[0]


def test_unknown_flags_rejected(tmp_path, capsys):
    path = write_complex(tmp_path, boundary_sphere(3))
    code, _, _ = run(capsys, "betti", "--complex", path, "--bogus")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_reports_are_deterministic(tmp_path, capsys):
    path = write_complex(tmp_path, moebius_kantor_torus())
    _, out1, _ = run(capsys, "betti", "--complex", path)
    _, out2, _ = run(capsys, "betti", "--complex", path)
    assert out1 == out2


@pytest.mark.parametrize("pairs", [
    [[[0], [0, 1]], [[0], [0, 2]]],  # face 0 matched twice
    [1, 2, 3],  # not a list of pairs
])
def test_vpath_check_rejects_malformed_field(tmp_path, pairs):
    fpath = tmp_path / "field.json"
    fpath.write_text(json.dumps(pairs))
    code, out, err = run_process("vpath-check", "--field", str(fpath))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err)


def _bad_usage_argvs(tmp_path):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    spath = tmp_path / "shelling.json"
    spath.write_text(json.dumps(shell_surface(boundary_sphere(3)).to_dict()))
    missing = str(tmp_path / "no-such-dir" / "x.json")
    return {
        "start": ["shell-surface", "--complex", cpath, "--start", "a,b"],
        "iterations": ["subdivide", "--tiling", str(spath),
                       "--iterations", "-1"],
        "out": ["subdivide", "--complex", cpath, "--out", missing],
    }


@pytest.mark.parametrize("case", ["start", "iterations", "out"])
def test_usage_errors_exit_2_without_traceback(tmp_path, case):
    code, out, err = run_process(*_bad_usage_argvs(tmp_path)[case])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err)
