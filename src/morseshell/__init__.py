"""Morse tiles, tilings and shellings of finite simplicial complexes,
with compatible discrete vector fields and Morse functions.

The package exports its public names lazily (PEP 562): ``import
morseshell`` loads no submodule, and the first read of a name imports the
module that defines it, so a command-line process loads only what its
subcommand runs.
"""

from importlib import import_module

# defining module -> the names the package exports from it
_EXPORTS = {
    "complexes": (
        "BarycentricSubdivision",
        "SimplicialComplex",
        "Simplex",
        "barycentric_subdivision",
        "betti_numbers_mod2",
        "connected_components",
        "euler_characteristic",
        "faces_of",
        "is_closed_surface",
        "link",
        "make_complex",
        "simplex",
        "single_face_intersection",
        "skeleton",
        "star",
    ),
    "tiles": (
        "EMPTY_TILE",
        "MorseTile",
        "NotMorseTileError",
        "TileKind",
        "boundary_partition",
        "codim1_partition",
        "cone",
        "critical_tile",
        "normalize_tile",
        "skeleton_partition",
        "standard_morse_tile",
        "standard_tile",
    ),
    "tiling": (
        "CriticalVector",
        "HTable",
        "MorseTiling",
        "NotShellableError",
        "Report",
        "SearchBudgetExceeded",
        "classical_shelling_order",
        "critical_vector",
        "h_table",
        "pack_simplices",
        "search_shelling",
        "skeleton_tiling",
        "subdivide_tile",
        "subdivide_tiling",
        "validate_shelling",
        "validate_tiling",
    ),
    "morse": (
        "CyclicFieldError",
        "DiscreteMorseFunction",
        "DiscreteVectorField",
        "compatible_field",
        "find_closed_vpath",
        "gradient_of",
        "is_vpath",
        "morse_function",
        "morse_inequalities_report",
        "tile_field",
        "validate_field",
        "validate_morse_function",
    ),
    "generators": (
        "HANDLE_VARIANTS",
        "PrismTriangulation",
        "handle_tiling",
        "prism_triangulation",
        "shell_surface",
    ),
    "words": (
        "Annulus",
        "CyclicWord",
        "RewriteStep",
        "annulus_of_word",
        "apply_step",
        "reduce_word",
        "word",
        "word_compress",
        "word_of_annulus",
        "word_subdivide",
        "word_suppress",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
