"""CLI behaviour: subcommands, formats, exit codes, closed loops."""

import functools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morseshell import cli, complexes, generators, tiles, tiling, words
from morseshell.catalog import (
    boundary_sphere,
    moebius_kantor_torus,
    untileable_wheel,
)
from morseshell.cli import main
from morseshell.complexes import make_complex
from morseshell.generators import (
    handle_tiling,
    prism_triangulation,
    shell_surface,
)
from morseshell.morse import compatible_field
from morseshell.tiles import MorseTile, standard_tile
from morseshell.tiling import MorseTiling, SearchBudgetExceeded, search_shelling
from morseshell.words import reduce_word, word

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


@pytest.mark.parametrize("command", ["subdivide", "skeleton"])
@pytest.mark.parametrize("inputs", ["both", "neither"])
def test_subdivide_and_skeleton_need_exactly_one_input(tmp_path, capsys,
                                                       command, inputs):
    cpath = write_complex(tmp_path, boundary_sphere(3))
    spath = str(tmp_path / "shelling.json")
    run(capsys, "shell-surface", "--complex", cpath, "--out", spath)
    flags = ["--tiling", spath, "--complex", cpath] if inputs == "both" else []
    argv = [command, *flags] + (["--n", "1"] if command == "skeleton" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "exactly one of --tiling and --complex" in json.loads(err)["error"]


def test_inequalities_exits_1_on_a_tiling_that_is_not_a_shelling(tmp_path,
                                                                 capsys):
    # the circle tiled by its three edges, each with one witness: the
    # compatible field cycles, so nothing is certified
    K = make_complex([(0, 1), (1, 2), (0, 2)])
    t = MorseTiling.over_complex(K, [MorseTile((0, 1), frozenset({0})),
                                     MorseTile((1, 2), frozenset({1})),
                                     MorseTile((0, 2), frozenset({2}))])
    cpath = write_complex(tmp_path, K)
    tpath = tmp_path / "tiling.json"
    tpath.write_text(json.dumps(t.to_dict()))
    code, out, _ = run(capsys, "inequalities", "--complex", cpath,
                       "--tiling", str(tpath))
    assert code == 1
    data = json.loads(out)
    assert data["certified"] is False
    assert data["betti_bounded"] is False
    assert data["alternating_sums_ok"] is False
    assert data["euler_equality"] is True


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


def test_tile_info_rejects_a_negative_dimension(capsys):
    code, out, err = run(capsys, "tile-info", "--n", "-1", "--k", "0")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "dimension must be non-negative, got -1"}


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
    code, _, err = run(capsys, "betti", "--complex", path, "--bogus")
    assert code == 2
    # the usage line names every command, though only betti's parser is built
    assert err.startswith("usage: morseshell [-h]\n") and ALL_COMMANDS in err
    assert err.endswith("error: unrecognized arguments: --bogus\n")
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


ALL_COMMANDS = ("{verify-tiling,verify-shelling,shell-surface,search-shelling,"
                "subdivide,skeleton,field,vpath-check,morse-function,betti,"
                "inequalities,hcounts,pack,handle,prism,word-reduce,tile-info}")


@pytest.mark.parametrize("argv", [[], ["nope"], ["--format", "text"]])
def test_no_known_command_lists_every_command(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert ALL_COMMANDS in err
    if argv == ["nope"]:
        choices = ", ".join(repr(c) for c in ALL_COMMANDS[1:-1].split(","))
        assert err.endswith("error: argument command: invalid choice: 'nope'"
                            f" (choose from {choices})\n")


def test_top_level_help_lists_every_command(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert f"positional arguments:\n  {ALL_COMMANDS}\n" in out


def test_handle_variant_choices(capsys):
    code, out, _ = run(capsys, "handle", "--help")
    assert code == 0
    assert "--variant {one-handle,co-handle,lateral}" in out
    code, out, err = run(capsys, "handle", "--n", "2", "--variant", "bad")
    assert code == 2 and out == ""
    assert "invalid choice: 'bad'" in err


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


@pytest.mark.parametrize("command,flag", [("betti", "--complex"),
                                          ("verify-tiling", "--tiling")])
@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"maximal_simplices": [[0, ' + "9" * 5000 + "]]}"],
    ids=["deep-nesting", "long-integer"])
def test_json_past_the_decoders_limits_exits_2_without_traceback(
        tmp_path, command, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run_process(command, flag, str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "cannot decode" in json.loads(err)["error"]


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


class PointIn:
    """Stands in an argument list for a tiling file: one closed point tiled
    inside the simplex on n vertices, which is under the face cap."""

    def __init__(self, n):
        self.n = n

    def write(self, tmp_path):
        K = make_complex([range(self.n)])
        t = MorseTiling(K, {(0,)}, (MorseTile((0,)),), ordered=True)
        path = tmp_path / f"point-in-{self.n}.json"
        path.write_text(json.dumps(t.to_dict()))
        return str(path)


def with_files(tmp_path, argv):
    return [a.write(tmp_path) if isinstance(a, PointIn) else a for a in argv]


# the module each guarded builder is defined in; the handlers import it
# when they run, so patching that module reaches them
BUILDER_MODULES = {"standard_tile": tiles,
                   "standard_morse_tile": tiles,
                   "handle_tiling": generators,
                   "prism_triangulation": generators,
                   "reduce_word": words,
                   "barycentric_subdivision": complexes,
                   "subdivide_tiling": tiling}


@pytest.mark.parametrize("argv", [["tile-info", "--n", "23", "--k", "0"],
                                  ["tile-info", "--n", "10000000000000",
                                   "--k", "0"],
                                  ["handle", "--n", "19"],
                                  ["handle", "--n", "10000000000000"],
                                  ["prism", "--n", "3162"],
                                  ["prism", "--n", "10000000000000"],
                                  ["word-reduce", "ud" * 2236 + "u"],
                                  ["word-reduce", "u" * 30000],
                                  # 11! flags, though the tile is one point
                                  ["pack", "--tiling", PointIn(11)],
                                  ["subdivide", "--tiling", PointIn(11)]])
def test_face_count_cap_refuses_before_enumerating(monkeypatch, capsys,
                                                   tmp_path, argv):
    for name, module in BUILDER_MODULES.items():
        monkeypatch.setattr(module, name, _refuse_to_build)
    code, out, err = run(capsys, *with_files(tmp_path, argv))
    assert code == 2
    assert out == ""
    assert "cap" in json.loads(err)["error"]


@pytest.mark.parametrize("argv,builder", [
    (["tile-info", "--n", "22", "--k", "0"], "standard_tile"),
    (["handle", "--n", "18"], "handle_tiling"),
    (["prism", "--n", "3161"], "prism_triangulation"),
    (["word-reduce", "ud" * 2236], "reduce_word"),
    (["subdivide", "--tiling", PointIn(10)], "subdivide_tiling")])
def test_face_count_cap_admits_the_largest_n_below_it(monkeypatch, capsys,
                                                      tmp_path, argv, builder):
    # 2^23 faces, 18 * 2^19 faces, 3161 * 3162 vertex entries,
    # 4472 * 4471 / 2 trace letters and 10! flags lie below 10^7; a small
    # stand-in is built
    small = {"standard_tile": lambda n, k: standard_tile(2, 0),
             "handle_tiling": lambda n, variant: handle_tiling(2, variant),
             "prism_triangulation": lambda n: prism_triangulation(2),
             "reduce_word": lambda w: reduce_word(word("ududdu")),
             "subdivide_tiling": lambda t, iterations: t}
    monkeypatch.setattr(BUILDER_MODULES[builder], builder, small[builder])
    code, _, _ = run(capsys, *with_files(tmp_path, argv))
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


@pytest.mark.parametrize("command", ["betti", "verify-tiling"])
def test_complex_over_the_face_cap_is_refused_before_reading(tmp_path, command):
    # one simplex on 40 vertices has 2^40 - 1 faces; none may be built
    big = {"maximal_simplices": [list(range(40))]}
    path = tmp_path / "big.json"
    if command == "betti":
        path.write_text(json.dumps(big))
        argv = ("betti", "--complex", str(path))
    else:
        path.write_text(json.dumps({"complex": big, "tiles": []}))
        argv = ("verify-tiling", "--tiling", str(path))
    start = time.perf_counter()
    code, out, err = run_process(*argv, timeout=10)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "exceeds the 10^7 cap" in json.loads(err)["error"]


def test_verify_shelling_rejects_non_bool_ordered(tmp_path):
    data = shell_surface(boundary_sphere(3)).to_dict() | {"ordered": "no"}
    tpath = tmp_path / "shelling.json"
    tpath.write_text(json.dumps(data))
    code, out, err = run_process("verify-shelling", "--tiling", str(tpath))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "bad tiling file" in json.loads(err)["error"]


# -- fuzz: small JSON values, mostly in the shape of the file formats --------

_leaves = st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.floats(),
                    st.text(max_size=3))
_FORMAT_KEYS = ["name", "maximal_simplices", "complex", "carrier", "ordered",
                "tiles", "closure", "removed_witnesses", "removed_face"]
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(_FORMAT_KEYS) | st.text(max_size=3), inner,
        max_size=4),
    max_leaves=12)
_simplices = st.lists(st.integers(0, 5), min_size=1, max_size=4, unique=True)


def _shelling(maximal):
    """A shelling of the complex as a tiling file's value, or None."""
    try:
        t = search_shelling(make_complex(maximal), budget=50)
    except (TypeError, ValueError, SearchBudgetExceeded):
        return None
    return None if t is None else t.to_dict()


def _replaced(data, key, value, tile):
    """data with one key, of the tiling or of one of its tiles, replaced."""
    if not isinstance(data, dict):
        return value
    data = json.loads(json.dumps(data))
    if tile is not None and data["tiles"]:
        data["tiles"][tile % len(data["tiles"])][key] = value
    else:
        data[key] = value
    return data


@st.composite
def _cli_inputs(draw):
    maximal = draw(st.lists(_simplices | _values, min_size=1, max_size=5))
    shelled = _shelling(maximal)
    complex_ = draw(st.one_of(
        st.just({"maximal_simplices": maximal}),
        st.sampled_from([boundary_sphere(3).to_dict(),
                         untileable_wheel().to_dict()]),
        _values))
    tiling = draw(st.one_of(
        st.just(shelled),
        st.builds(_replaced, st.just(shelled), st.sampled_from(_FORMAT_KEYS),
                  _values, st.none() | st.integers(0, 4)),
        st.fixed_dictionaries(
            {"complex": st.just(complex_), "tiles": st.lists(
                st.fixed_dictionaries({"closure": _simplices},
                                      optional={"removed_witnesses": _simplices,
                                                "removed_face": _simplices}),
                max_size=5)},
            optional={"carrier": st.just("all") | st.lists(_simplices),
                      "ordered": st.booleans()}),
        _values))
    field = None
    if shelled is not None:
        field = compatible_field(MorseTiling.from_dict(shelled)).to_list()
    field = draw(st.one_of(
        st.just(field),
        st.lists(st.tuples(_simplices, _simplices) | _values, max_size=4),
        _values))
    return complex_, tiling, field


_FUZZ_COMMANDS = [
    ["betti", "--complex", "{complex}"],
    ["verify-tiling", "--tiling", "{tiling}"],
    ["verify-shelling", "--tiling", "{tiling}"],
    ["field", "--tiling", "{tiling}"],
    ["morse-function", "--tiling", "{tiling}"],
    ["hcounts", "--tiling", "{tiling}"],
    ["pack", "--tiling", "{tiling}"],
    ["subdivide", "--tiling", "{tiling}"],
    ["skeleton", "--n", "1", "--tiling", "{tiling}"],
    ["shell-surface", "--complex", "{complex}"],
    ["search-shelling", "--budget", "50", "--complex", "{complex}"],
    ["vpath-check", "--field", "{field}"],
    ["vpath-check", "--field", "{field}", "--tiling", "{tiling}"],
    ["inequalities", "--complex", "{complex}", "--tiling", "{tiling}"],
]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_inputs())
def test_malformed_json_keeps_the_exit_contract(tmp_path, capsys, monkeypatch,
                                                inputs):
    # every call builds the same parser; build it once
    monkeypatch.setattr(cli, "_build_parser", functools.cache(cli._build_parser))
    paths = {}
    for name, value in zip(["complex", "tiling", "field"], inputs):
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(value))
    for argv in _FUZZ_COMMANDS:
        code = main([arg.format(**paths) for arg in argv])
        capsys.readouterr()
        assert code in (0, 1, 2), argv


# -- behaviour the README documents ------------------------------------------


def test_skeleton_of_a_complex(tmp_path, capsys):
    path = write_complex(tmp_path, moebius_kantor_torus())
    code, out, _ = run(capsys, "skeleton", "--n", "1", "--complex", path)
    assert code == 0
    assert json.loads(out) == {"f_vector": [7, 21], "faces": 28}


def test_search_shelling_budget_exceeded(tmp_path, capsys):
    path = write_complex(tmp_path, moebius_kantor_torus())
    code, out, _ = run(capsys, "search-shelling", "--budget", "0",
                       "--complex", path)
    assert code == 1
    assert json.loads(out) == {"budget": 0, "status": "budget exceeded"}


def write_cyclic_tiling(tmp_path):
    """A valid ordered tiling of the triangle boundary whose field pairs each
    vertex with the edge to its predecessor, a closed V-path."""
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({
        "complex": {"name": "triangle-boundary",
                    "maximal_simplices": [[0, 1], [1, 2], [0, 2]]},
        "ordered": True,
        "tiles": [{"closure": [0, 1], "removed_witnesses": [1]},
                  {"closure": [1, 2], "removed_witnesses": [2]},
                  {"closure": [0, 2], "removed_witnesses": [0]}]}))
    return str(path)


def test_cyclic_tiling_through_field_vpath_check_and_morse_function(
        tmp_path, capsys):
    tpath = write_cyclic_tiling(tmp_path)
    fpath = str(tmp_path / "field.json")
    code, out, _ = run(capsys, "field", "--tiling", tpath, "--out", fpath)
    assert code == 0
    data = json.loads(out)
    assert data["pairs"] == 3 and data["critical_cells"] == []
    cycle = [[0], [2], [1], [0]]

    code, out, _ = run(capsys, "vpath-check", "--field", fpath)
    assert code == 1
    assert json.loads(out)["closed_vpath"] == cycle

    code, out, _ = run(capsys, "morse-function", "--tiling", tpath)
    assert code == 1
    assert json.loads(out) == {"status": "cyclic field", "closed_vpath": cycle}


def test_verify_shelling_text_lists_errors_indented(tmp_path, capsys):
    tpath = write_cyclic_tiling(tmp_path)
    code, out, _ = run(capsys, "verify-shelling", "--tiling", tpath)
    assert code == 1
    errors = json.loads(out)["errors"]
    assert errors and errors[0].startswith("prefix 1:")

    code, out, _ = run(capsys, "verify-shelling", "--tiling", tpath,
                       "--format", "text")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("errors:")
    assert lines[at + 1:at + 1 + len(errors)] == [f"  {e}" for e in errors]


# -- standard output that cannot be written ----------------------------------


def _unwritable_stdout_run(tmp_path, stdout, unbuffered, argv=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    if argv is None:
        argv = ["betti", "--complex",
                write_complex(tmp_path, moebius_kantor_torus())]
    proc = subprocess.run(
        [sys.executable, "-m", "morseshell.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    assert error.startswith("cannot write standard output: ")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_pipe_without_reader_exits_2(tmp_path, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe fails with EPIPE
    try:
        _unwritable_stdout_run(tmp_path, write_end, unbuffered)
    finally:
        os.close(write_end)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_stdout_on_a_full_device_exits_2(tmp_path, unbuffered):
    with open("/dev/full", "w") as full:
        _unwritable_stdout_run(tmp_path, full, unbuffered)


# argparse drops a failed write of the help text; unbuffered, nothing is
# left for the final flush to fail on
HELP_ARGV = [["--help"], ["betti", "--help"]]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_to_a_pipe_without_reader_exits_2(tmp_path, argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        _unwritable_stdout_run(tmp_path, write_end, unbuffered, argv)
    finally:
        os.close(write_end)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv", HELP_ARGV, ids=" ".join)
def test_help_on_a_full_device_exits_2(tmp_path, argv, unbuffered):
    with open("/dev/full", "w") as full:
        _unwritable_stdout_run(tmp_path, full, unbuffered, argv)


# -- reports independent of the hash seed ------------------------------------


def _outputs_under_hash_seed(tmp_path, seed):
    """Stdout of each stage and the bytes of each --out file, under one
    PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
    work = tmp_path / f"seed-{seed}"
    work.mkdir()
    write_complex(work, moebius_kantor_torus(), "torus.json")
    stages = [
        ["word-reduce", "uuudddududdu", "--out", "trace.json"],
        ["shell-surface", "--complex", "torus.json", "--out", "shelling.json"],
        ["field", "--tiling", "shelling.json", "--out", "field.json"],
        ["morse-function", "--tiling", "shelling.json", "--out", "morse.json"],
    ]
    outputs = []
    for argv in stages:
        proc = subprocess.run([sys.executable, "-m", "morseshell.cli", *argv],
                              capture_output=True, env=env, cwd=work)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, (work / argv[-1]).read_bytes()))
    return outputs


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    assert _outputs_under_hash_seed(tmp_path, "0") == \
        _outputs_under_hash_seed(tmp_path, "1")
