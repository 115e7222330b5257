"""CLI behaviour: subcommands, formats, exit codes, closed loops."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from morseshell import cli
from morseshell.catalog import (
    boundary_sphere,
    moebius_kantor_torus,
    untileable_wheel,
)
from morseshell.cli import main
from morseshell.complexes import make_complex
from morseshell.generators import handle_tiling, shell_surface
from morseshell.tiles import standard_tile

SRC = str(Path(__file__).resolve().parents[1] / "src")


def write_complex(tmp_path, K, name="complex.json"):
    path = tmp_path / name
    path.write_text(json.dumps(K.to_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, timeout=None):
    """The CLI in a fresh interpreter, so an escaping exception shows as a
    traceback on stderr."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "morseshell.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)
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
        "skeleton-complex": ["skeleton", "--n", "-1", "--complex", cpath],
        "skeleton-tiling": ["skeleton", "--n", "-1", "--tiling", str(spath)],
        "budget": ["search-shelling", "--complex", cpath, "--budget", "-3"],
    }


@pytest.mark.parametrize("case", ["start", "iterations", "out",
                                  "skeleton-complex", "skeleton-tiling",
                                  "budget"])
def test_usage_errors_exit_2_without_traceback(tmp_path, case):
    code, out, err = run_process(*_bad_usage_argvs(tmp_path)[case])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "error" in json.loads(err)


@pytest.mark.parametrize("command,flag", [("betti", "--complex"),
                                          ("verify-tiling", "--tiling")])
def test_non_utf8_input_exits_2_without_traceback(tmp_path, command, flag):
    path = tmp_path / "input.json"
    path.write_bytes(b'\xff{"maximal_simplices": [[0, 1, 2]]}')
    code, out, err = run_process(command, flag, str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "UTF-8" in json.loads(err)["error"]


@pytest.mark.parametrize("command", ["hcounts", "pack"])
def test_tiling_commands_reject_invalid_tiling(tmp_path, command):
    # the only tile's closure (0, 1, 5) is not a simplex of the complex
    tpath = tmp_path / "tiling.json"
    tpath.write_text(json.dumps({
        "complex": {"maximal_simplices": [[0, 1, 2]]},
        "tiles": [{"closure": [0, 1, 5]}]}))
    code, out, err = run_process(command, "--tiling", str(tpath))
    assert code == 1
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["valid"] is False
    assert any("(0, 1, 5)" in e for e in data["errors"])


@pytest.mark.parametrize("argv", [["subdivide"], ["skeleton", "--n", "1"]])
def test_subdivide_and_skeleton_reject_invalid_tiling(tmp_path, argv):
    # the only tile's closure (0, 1, 5) is not a simplex of the complex
    tpath = tmp_path / "tiling.json"
    tpath.write_text(json.dumps({
        "complex": {"maximal_simplices": [[0, 1, 2]]},
        "tiles": [{"closure": [0, 1, 5]}]}))
    code, out, err = run_process(*argv, "--tiling", str(tpath))
    assert code == 1
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["valid"] is False
    assert any("(0, 1, 5)" in e for e in data["errors"])


def test_verify_tiling_lists_at_most_100_errors(tmp_path, capsys):
    # no tiles over a path of 51 vertices: each of its 101 faces is uncovered
    tpath = tmp_path / "tiling.json"
    tpath.write_text(json.dumps({
        "complex": {"maximal_simplices": [[i, i + 1] for i in range(50)]},
        "tiles": []}))
    code, out, _ = run(capsys, "verify-tiling", "--tiling", str(tpath))
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False
    assert len(data["errors"]) == 101
    assert data["errors"][0] == "carrier face (0,) is not covered by any tile"
    assert data["errors"][-1] == "101 errors in all; the first 100 are listed"


def test_flag_of_another_command_rejected(tmp_path):
    path = write_complex(tmp_path, boundary_sphere(3))
    code, out, err = run_process("betti", "--complex", path, "--n", "3")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["handle"], ["prism"], ["skeleton"],
                                  ["tile-info", "--n", "3"], ["betti"],
                                  ["verify-tiling"], ["field"]])
def test_missing_required_flag_exits_2(argv):
    code, out, err = run_process(*argv)
    assert code == 2
    assert out == ""
    assert "required" in err and "Traceback" not in err


COMMAND_FLAGS = {
    "verify-tiling": {"--tiling"},
    "verify-shelling": {"--tiling"},
    "shell-surface": {"--complex", "--start", "--out"},
    "search-shelling": {"--complex", "--budget", "--out"},
    "subdivide": {"--tiling", "--complex", "--iterations", "--out"},
    "skeleton": {"--n", "--tiling", "--complex", "--out"},
    "field": {"--tiling", "--out"},
    "vpath-check": {"--field", "--tiling"},
    "morse-function": {"--tiling", "--out"},
    "betti": {"--complex"},
    "inequalities": {"--complex", "--tiling"},
    "hcounts": {"--tiling"},
    "pack": {"--tiling", "--out"},
    "handle": {"--n", "--variant", "--out"},
    "prism": {"--n", "--out"},
    "word-reduce": {"--out"},
    "tile-info": {"--n", "--k", "--l"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_help_lists_only_the_commands_flags(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    listed = set(re.findall(r"--[a-z]+", out))
    assert listed == COMMAND_FLAGS[command] | {"--help", "--format"}


@pytest.mark.parametrize("iterations,f_vector", [("0", [4, 6, 4]),
                                                 ("2", [74, 216, 144])])
def test_subdivide_complex_applies_iterations(tmp_path, iterations, f_vector):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    opath = tmp_path / "out.json"
    code, out, err = run_process("subdivide", "--complex", cpath,
                                 "--iterations", iterations,
                                 "--out", str(opath))
    assert code == 0 and err == ""
    assert json.loads(out)["f_vector"] == f_vector
    assert sorted(len(m) for m in json.loads(opath.read_text())
                  ["maximal_simplices"]) == [3] * f_vector[2]


@pytest.mark.parametrize("iterations,message", [("-1", "non-negative"),
                                                ("20", "cap")])
def test_subdivide_complex_rejects_bad_iterations(tmp_path, iterations,
                                                  message):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    code, out, err = run_process("subdivide", "--complex", cpath,
                                 "--iterations", iterations)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert message in json.loads(err)["error"]


def test_subdivide_rejects_more_than_24_iterations_on_points(tmp_path):
    # points never multiply, so only the round count can be refused
    cpath = write_complex(tmp_path, make_complex([[0], [1]]))
    code, out, err = run_process("subdivide", "--complex", cpath,
                                 "--iterations", "25")
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "cap" in json.loads(err)["error"]


def _refuse_to_build(*args):
    raise AssertionError("the cap check must come before any enumeration")


@pytest.mark.parametrize("argv", [["tile-info", "--n", "23", "--k", "0"],
                                  ["tile-info", "--n", "10000000000000",
                                   "--k", "0"],
                                  ["handle", "--n", "19"],
                                  ["handle", "--n", "10000000000000"]])
def test_face_count_cap_refuses_before_enumerating(monkeypatch, capsys, argv):
    for name in ("standard_tile", "standard_morse_tile", "handle_tiling"):
        monkeypatch.setattr(cli, name, _refuse_to_build)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "cap" in json.loads(err)["error"]


@pytest.mark.parametrize("argv,builder", [
    (["tile-info", "--n", "22", "--k", "0"], "standard_tile"),
    (["handle", "--n", "18"], "handle_tiling")])
def test_face_count_cap_admits_the_largest_n_below_it(monkeypatch, capsys,
                                                      argv, builder):
    # 2^23 and 18 * 2^19 faces lie below 10^7; a small stand-in is built
    small = {"standard_tile": lambda n, k: standard_tile(2, 0),
             "handle_tiling": lambda n, variant: handle_tiling(2, variant)}
    monkeypatch.setattr(cli, builder, small[builder])
    code, _, _ = run(capsys, *argv)
    assert code == 0


def _tiling_commands(tmp_path, tpath):
    fpath = tmp_path / "field.json"
    fpath.write_text("[]")
    cpath = write_complex(tmp_path, boundary_sphere(3))
    return [["verify-tiling"], ["verify-shelling"], ["subdivide"],
            ["skeleton", "--n", "1"], ["field"], ["morse-function"],
            ["hcounts"], ["pack"], ["inequalities", "--complex", cpath],
            ["vpath-check", "--field", str(fpath)]]


@pytest.mark.parametrize("tile", [None, 5])
def test_non_object_tile_exits_2_without_traceback(tmp_path, tile):
    data = shell_surface(boundary_sphere(3)).to_dict()
    data["tiles"].append(tile)
    tpath = tmp_path / "shelling.json"
    tpath.write_text(json.dumps(data))
    for argv in _tiling_commands(tmp_path, tpath):
        code, out, err = run_process(*argv, "--tiling", str(tpath))
        assert code == 2, argv
        assert out == ""
        assert "Traceback" not in err
        assert "bad tiling file" in json.loads(err)["error"]


@pytest.mark.parametrize("witness", [2.0, True, "1", -1])
def test_non_integer_witness_is_a_bad_tiling_file(tmp_path, capsys, witness):
    data = shell_surface(boundary_sphere(3)).to_dict()
    data["tiles"][-1]["removed_witnesses"][0] = witness
    tpath = tmp_path / "shelling.json"
    tpath.write_text(json.dumps(data))
    for argv in _tiling_commands(tmp_path, tpath):
        code, out, err = run(capsys, *argv, "--tiling", str(tpath))
        assert code == 2, argv
        assert out == ""
        assert "bad tiling file" in json.loads(err)["error"]


def test_closure_off_the_complex_is_not_enumerated(tmp_path):
    # a closure of 40 vertices has 2^40 faces; it is reported, not walked
    tpath = tmp_path / "tiling.json"
    tpath.write_text(json.dumps({
        "complex": {"maximal_simplices": [[0]]},
        "tiles": [{"closure": list(range(40))}]}))
    start = time.perf_counter()
    code, out, err = run_process("verify-tiling", "--tiling", str(tpath),
                                 timeout=10)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(out)["errors"] == [
        f"tile 0: closure {tuple(range(40))} is not a simplex of the ambient"
        " complex", "carrier face (0,) is not covered by any tile"]


def test_verify_shelling_rejects_non_bool_ordered(tmp_path):
    data = shell_surface(boundary_sphere(3)).to_dict() | {"ordered": "no"}
    tpath = tmp_path / "shelling.json"
    tpath.write_text(json.dumps(data))
    code, out, err = run_process("verify-shelling", "--tiling", str(tpath))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "bad tiling file" in json.loads(err)["error"]
