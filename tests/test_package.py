"""What importing the package and running one CLI command load: the
package exports its names lazily, and a command imports only the modules
it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morseshell
from morseshell.catalog import boundary_sphere

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the package's public names, by defining module, as they were before the
# exports became lazy
EXPORTS = {
    "complexes": [
        "BarycentricSubdivision", "Simplex", "SimplicialComplex",
        "barycentric_subdivision", "betti_numbers_mod2", "connected_components",
        "euler_characteristic", "faces_of", "is_closed_surface", "link",
        "make_complex", "simplex", "single_face_intersection", "skeleton",
        "star"],
    "tiles": [
        "EMPTY_TILE", "MorseTile", "NotMorseTileError", "TileKind",
        "boundary_partition", "codim1_partition", "cone", "critical_tile",
        "normalize_tile", "skeleton_partition", "standard_morse_tile",
        "standard_tile"],
    "tiling": [
        "CriticalVector", "HTable", "MorseTiling", "NotShellableError",
        "Report", "SearchBudgetExceeded", "classical_shelling_order",
        "critical_vector", "h_table", "pack_simplices", "search_shelling",
        "skeleton_tiling", "subdivide_tile", "subdivide_tiling",
        "validate_shelling", "validate_tiling"],
    "morse": [
        "CyclicFieldError", "DiscreteMorseFunction", "DiscreteVectorField",
        "compatible_field", "find_closed_vpath", "gradient_of", "is_vpath",
        "morse_function", "morse_inequalities_report", "tile_field",
        "validate_field", "validate_morse_function"],
    "generators": [
        "HANDLE_VARIANTS", "PrismTriangulation", "handle_tiling",
        "prism_triangulation", "shell_surface"],
    "words": [
        "Annulus", "CyclicWord", "RewriteStep", "annulus_of_word", "apply_step",
        "reduce_word", "word", "word_compress", "word_of_annulus",
        "word_subdivide", "word_suppress"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def fresh(code, *argv):
    """Run code in a fresh interpreter without site packages; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout


LOADED = ("import sys; print(sorted(m for m in sys.modules"
          " if m.startswith('morseshell')), 'dataclasses' in sys.modules)")


def test_every_name_is_the_defining_modules_object():
    assert len(NAMES) == 71
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"morseshell.{module}")
        for name in names:
            assert getattr(morseshell, name) is getattr(defining, name), name


def test_all_lists_the_exports_and_dir_shows_them():
    assert sorted(morseshell.__all__) == NAMES
    assert set(morseshell.__all__) <= set(dir(morseshell))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from morseshell import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        morseshell.no_such_name  # noqa: B018


def test_importing_the_package_loads_no_submodule():
    assert fresh(f"import morseshell; {LOADED}") == "['morseshell'] False\n"
    # a submodule still imports by name from the package
    out = fresh("from morseshell import words, MorseTile;"
                " print(words.__name__, MorseTile.__module__)")
    assert out == "morseshell.words morseshell.tiles\n"


@pytest.mark.parametrize("module", ["morse", "generators"])
def test_library_modules_do_not_import_dataclasses(module):
    out = fresh(f"import morseshell.{module}; {LOADED}")
    assert out.endswith(" False\n")


# the modules beside morseshell and morseshell.cli that each command loads;
# only word-reduce's module, words, imports dataclasses
TILING = ["complexes", "tiles", "tiling"]
STAGE_MODULES = [
    (["subdivide", "--complex", "{complex}", "--out", "sd.json"],
     ["complexes"]),
    (["shell-surface", "--complex", "sd.json", "--out", "shelling.json"],
     TILING + ["generators"]),
    (["verify-shelling", "--tiling", "shelling.json"], TILING),
    (["field", "--tiling", "shelling.json", "--out", "field.json"],
     TILING + ["morse"]),
    (["vpath-check", "--field", "field.json", "--tiling", "shelling.json"],
     TILING + ["morse"]),
    (["morse-function", "--tiling", "shelling.json", "--out", "morse.json"],
     TILING + ["morse"]),
    (["inequalities", "--complex", "sd.json", "--tiling", "shelling.json"],
     TILING + ["morse"]),
    (["word-reduce", "uuuddd"], ["complexes", "words"]),
]


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    cpath = tmp_path / "complex.json"
    cpath.write_text(json.dumps(boundary_sphere(3).to_dict()))
    run_main = ("import contextlib, io, os, sys\n"
                "os.chdir(sys.argv[1])\n"
                "from morseshell import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    code = cli.main(sys.argv[2:])\n"
                f"print(code); {LOADED}\n")
    for argv, modules in STAGE_MODULES:
        argv = [arg.format(complex=cpath) for arg in argv]
        code, loaded = fresh(run_main, str(tmp_path), *argv).splitlines()
        assert code == "0", argv
        expect = ["morseshell", "morseshell.cli"] + \
            [f"morseshell.{m}" for m in modules]
        assert loaded == f"{sorted(expect)} {'words' in modules}", argv
