"""Command-line surface: load complexes and tilings as JSON, generate,
verify, subdivide and report.

Exit codes: 0 success or valid, 1 invalid input or violation found,
2 usage or I/O error.  Reports go to standard output as JSON (default)
or plain text, deterministically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, Any, Iterable

from .complexes import SimplicialComplex

if TYPE_CHECKING:
    from .tiling import MorseTiling


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: byte {exc.start}:"
                       f" {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path} at byte {exc.pos}:"
                       f" {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # nesting past the interpreter's recursion limit, or an integer past
        # its digit limit
        raise CliError(f"cannot decode {path}: {exc}") from exc


def _load_complex(path: str) -> SimplicialComplex:
    data = _load_json(path)
    try:
        K = SimplicialComplex.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad complex file {path}: {exc}") from exc
    _check_faces(K.maximal_simplices)
    return K


def _load_tiling(path: str) -> MorseTiling:
    from .tiling import MorseTiling
    data = _load_json(path)
    try:
        # the complex's faces are built as it is read, so check them first
        _check_faces(data["complex"]["maximal_simplices"])
        return MorseTiling.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad tiling file {path}: {exc}") from exc


def _write_out(path: str | None, payload: Any) -> None:
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _emit(report: dict | None, fmt: str | None) -> None:
    """Print the report in the given format, nothing when the format is
    None, and flush standard output."""
    try:
        if fmt == "json":
            print(json.dumps(report, indent=2, sort_keys=True))
        elif fmt == "text":
            for key in sorted(report):
                value = report[key]
                if isinstance(value, list) and value and \
                        isinstance(value[0], str):
                    print(f"{key}:")
                    for line in value:
                        print(f"  {line}")
                else:
                    print(f"{key}: {value}")
        sys.stdout.flush()
    except OSError as exc:
        raise _stdout_error(exc) from exc


def _stdout_error(exc: OSError) -> CliError:
    """The error for a failed write to standard output."""
    # the interpreter flushes standard output again at exit; send that
    # flush nowhere, so that it cannot fail a second time
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return CliError(f"cannot write standard output: {exc}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help reports a failed write to standard
    output; argparse ignores it, which unbuffered output makes final."""

    def print_help(self, file=None) -> None:
        if file is not None:
            return super().print_help(file)
        try:
            sys.stdout.write(self.format_help())
        except OSError as exc:
            raise _stdout_error(exc) from exc


def _tiling_errors(t: MorseTiling) -> dict | None:
    """The invalid-tiling report, or None when the tiling is valid."""
    from .tiling import validate_tiling
    rep = validate_tiling(t)
    return None if rep.valid else {"valid": False, "errors": rep.errors}


def _tiling_summary(t: MorseTiling) -> dict:
    from .tiling import critical_vector
    cv = critical_vector(t)
    return {"tiles": len(t.tiles),
            "carrier_faces": len(t.carrier),
            "critical_vector": list(cv.counts),
            "euler_characteristic": cv.euler_characteristic}


# -- subcommand handlers -----------------------------------------------------

# Each handler imports the modules it calls, so that a process loads only
# what its subcommand runs.


def _cmd_verify_tiling(args) -> tuple[int, dict]:
    from .tiling import validate_tiling
    t = _load_tiling(args.tiling)
    rep = validate_tiling(t)
    out = {"valid": rep.valid, "errors": rep.errors} | _tiling_summary(t)
    return (0 if rep.valid else 1), out


def _cmd_verify_shelling(args) -> tuple[int, dict]:
    from .tiling import validate_shelling
    t = _load_tiling(args.tiling)
    if not t.ordered:
        raise CliError("tiling file is not marked as ordered", code=1)
    rep = validate_shelling(t)
    out = {"valid": rep.valid, "errors": rep.errors} | _tiling_summary(t)
    return (0 if rep.valid else 1), out


def _cmd_shell_surface(args) -> tuple[int, dict]:
    from .generators import shell_surface
    K = _load_complex(args.complex)
    start = None
    if args.start:
        try:
            start = tuple(int(x) for x in args.start.split(","))
        except ValueError as exc:
            raise CliError(f"bad --start {args.start!r}: expected comma-separated"
                           " vertex ids") from exc
    try:
        t = shell_surface(K, start=start)
    except ValueError as exc:
        raise CliError(str(exc), code=1) from exc
    _write_out(args.out, t.to_dict())
    return 0, _tiling_summary(t)


def _cmd_search_shelling(args) -> tuple[int, dict]:
    from .tiling import SearchBudgetExceeded, search_shelling
    if args.budget < 0:
        raise CliError("--budget must be non-negative")
    K = _load_complex(args.complex)
    try:
        t = search_shelling(K, budget=args.budget)
    except SearchBudgetExceeded:
        return 1, {"status": "budget exceeded", "budget": args.budget}
    if t is None:
        return 1, {"status": "none",
                   "maximal_simplices": len(K.maximal_simplices)}
    _write_out(args.out, t.to_dict())
    return 0, {"status": "found"} | _tiling_summary(t)


def _check_cap(predicted: int, noun: str) -> None:
    """Refuse, before building anything, an output predicted to hold more
    than 10^7 items."""
    if predicted > 10 ** 7:
        raise CliError(f"predicted {noun} exceeds the 10^7 cap")


def _check_faces(maximal: Iterable) -> None:
    """Refuse a complex predicted, at 2^n - 1 faces per maximal simplex on n
    vertices, to pass the cap; non-list entries are left to its reader."""
    _check_cap(sum(2 ** min(len(m), 64) - 1 for m in maximal
                   if isinstance(m, (list, tuple))), "face count of the complex")


def _check_flags(K: SimplicialComplex, iterations: int) -> None:
    """Refuse to subdivide K past the cap: a simplex on s vertices splits
    into s! per round."""
    _check_cap(sum(math.factorial(len(m)) ** iterations
                   for m in K.maximal_simplices),
               f"maximal simplex count after {iterations} subdivisions")


def _cmd_subdivide(args) -> tuple[int, dict]:
    from .complexes import barycentric_subdivision
    if bool(args.tiling) == bool(args.complex):
        raise CliError("subdivide needs exactly one of --tiling and --complex")
    if args.iterations < 0:
        raise CliError("--iterations must be non-negative")
    if args.iterations > 24:
        # any simplex with an edge passes the cap within 24 rounds, and
        # points never multiply, so more rounds only rename them
        raise CliError("--iterations above 24 exceeds the 10^7 cap")
    if args.tiling:
        t = _load_tiling(args.tiling)
        if bad := _tiling_errors(t):
            return 1, bad
        K = t.ambient  # subdivided whole, whatever the carrier
    else:
        K = _load_complex(args.complex)
    _check_flags(K, args.iterations)
    if args.tiling:
        from .tiling import subdivide_tiling
        out_tiling = subdivide_tiling(t, args.iterations)
        _write_out(args.out, out_tiling.to_dict())
        return 0, _tiling_summary(out_tiling)
    for _ in range(args.iterations):
        K = barycentric_subdivision(K).complex
    _write_out(args.out, K.to_dict())
    return 0, {"faces": len(K.faces), "f_vector": list(K.f_vector)}


def _cmd_skeleton(args) -> tuple[int, dict]:
    from .complexes import skeleton
    if bool(args.tiling) == bool(args.complex):
        raise CliError("skeleton needs exactly one of --tiling and --complex")
    if args.n < 0:
        raise CliError("--n must be non-negative")
    if args.tiling:
        t = _load_tiling(args.tiling)
        if bad := _tiling_errors(t):
            return 1, bad
        from .tiling import skeleton_tiling
        s = skeleton_tiling(t, args.n)
        _write_out(args.out, s.to_dict())
        return 0, _tiling_summary(s)
    K = _load_complex(args.complex)
    s = skeleton(K, args.n)
    _write_out(args.out, s.to_dict())
    return 0, {"faces": len(s.faces), "f_vector": list(s.f_vector)}


def _cmd_field(args) -> tuple[int, dict]:
    from .morse import compatible_field, validate_field
    t = _load_tiling(args.tiling)
    if bad := _tiling_errors(t):
        return 1, bad
    W = compatible_field(t)
    rep = validate_field(W)
    _write_out(args.out, W.to_list())
    crit = W.critical_cells()
    return (0 if rep.valid else 1), {
        "valid": rep.valid,
        "errors": rep.errors,
        "pairs": len(W.matching),
        "critical_cells": [list(c) for c in crit]}


def _cmd_vpath_check(args) -> tuple[int, dict]:
    from .morse import DiscreteVectorField, find_closed_vpath, validate_field
    pairs = _load_json(args.field)
    domain = None
    if args.tiling:
        domain = _load_tiling(args.tiling).carrier
    try:
        W = DiscreteVectorField.from_list(pairs, domain=domain)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad field file {args.field}: {exc}") from exc
    rep = validate_field(W)
    if not rep.valid:
        return 1, {"valid": False, "errors": rep.errors}
    cycle = find_closed_vpath(W)
    if cycle is None:
        return 0, {"valid": True, "acyclic": True}
    return 1, {"valid": True, "acyclic": False,
               "closed_vpath": [list(f) for f in cycle]}


def _cmd_morse_function(args) -> tuple[int, dict]:
    from .morse import (CyclicFieldError, compatible_field, morse_function,
                        validate_morse_function)
    t = _load_tiling(args.tiling)
    if bad := _tiling_errors(t):
        return 1, bad
    W = compatible_field(t)
    try:
        f = morse_function(W)
    except CyclicFieldError as exc:
        return 1, {"status": "cyclic field",
                   "closed_vpath": [list(x) for x in exc.cycle]}
    rep = validate_morse_function(f, W)
    _write_out(args.out, f.to_list())
    # a mismatch between f's gradient and W shows in valid/gradient_matches
    return (0 if rep.valid else 1), {
        "valid": rep.valid,
        "gradient_matches": rep.gradient_matches,
        "critical_values": [[list(c), str(f[c])]
                            for c in sorted(W.critical_cells())]}


def _cmd_betti(args) -> tuple[int, dict]:
    from .complexes import betti_numbers_mod2, euler_characteristic
    K = _load_complex(args.complex)
    b = betti_numbers_mod2(K)
    return 0, {"betti_mod2": b,
               "euler_characteristic": euler_characteristic(K.faces),
               "f_vector": list(K.f_vector)}


def _cmd_inequalities(args) -> tuple[int, dict]:
    from .morse import morse_inequalities_report
    K = _load_complex(args.complex)
    t = _load_tiling(args.tiling)
    try:
        rep = morse_inequalities_report(K, t)
    except ValueError as exc:
        raise CliError(str(exc), code=1) from exc
    out = {"certified": rep.certified,
           "betti_mod2": rep.betti,
           "critical_vector": rep.critical,
           "betti_bounded": rep.betti_bounded,
           "alternating_sums_ok": rep.alternating_ok,
           "euler_equality": rep.euler_equality,
           "messages": rep.messages}
    return (0 if rep.ok else 1), out


def _cmd_hcounts(args) -> tuple[int, dict]:
    from .tiling import critical_vector, h_table
    t = _load_tiling(args.tiling)
    if bad := _tiling_errors(t):
        return 1, bad
    tab = h_table(t)
    cv = critical_vector(t)
    out = {"basic": [[list(jk), c] for jk, c in sorted(tab.basic.items())],
           "regular": [[list(key), c] for key, c in sorted(tab.regular.items())],
           "critical_nonbasic": [[list(key), c] for key, c
                                 in sorted(tab.critical_nonbasic.items())],
           "vertex_count": tab.vertex_count,
           "vertex_identity_holds": tab.vertex_identity_holds,
           "critical_vector": list(cv.counts)}
    return (0 if tab.vertex_identity_holds else 1), out


def _cmd_pack(args) -> tuple[int, dict]:
    from .complexes import barycentric_subdivision
    from .tiling import h_table, pack_simplices
    t = _load_tiling(args.tiling)
    if bad := _tiling_errors(t):
        return 1, bad
    _check_flags(t.ambient, 1)
    packed = pack_simplices(t)
    sd = barycentric_subdivision(t.ambient)
    disjoint = len(set().union(*packed)) == sum(len(s) for s in packed)
    tab = h_table(t)
    per_dim = Counter(len(s) - 1 for s in packed)
    bound_ok = all(per_dim[j] >= tab.basic.get((j, 0), 0)
                   + tab.basic.get((j, 1), 0)
                   for j in range(t.dim + 1))
    payload = {"subdivision": sd.complex.to_dict(),
               "simplices": [list(s) for s in packed],
               "vertex_faces": [[i, list(f)] for i, f
                                in enumerate(sd.vertex_face)]}
    _write_out(args.out, payload)
    out = {"simplices": len(packed),
           "per_dimension": [[j, c] for j, c in sorted(per_dim.items())],
           "pairwise_vertex_disjoint": disjoint,
           "meets_lower_bound": bound_ok}
    return (0 if disjoint and bound_ok else 1), out


def _cmd_handle(args) -> tuple[int, dict]:
    from .generators import handle_tiling
    # n simplices of 2^(n+1) faces each; past 2^64 the cap is passed anyway
    _check_cap(args.n * 2 ** min(args.n + 1, 64),
               f"face count of the {args.n}-dimensional prism")
    try:
        t = handle_tiling(args.n, args.variant)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_out(args.out, t.to_dict())
    return 0, {"variant": args.variant} | _tiling_summary(t)


def _cmd_prism(args) -> tuple[int, dict]:
    from .generators import prism_triangulation
    # n simplices of n + 1 vertices each
    _check_cap(args.n * (args.n + 1), f"vertex-entry count of the {args.n}-prism")
    try:
        pr = prism_triangulation(args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    payload = pr.complex.to_dict() | {
        "bottom": list(pr.bottom),
        "top": list(pr.top),
        "simplex_order": [list(s) for s in pr.simplex_order]}
    _write_out(args.out, payload)
    return 0, {"maximal_simplices": len(pr.complex.maximal_simplices),
               "dim": pr.complex.dim,
               "bottom": list(pr.bottom),
               "top": list(pr.top)}


def _cmd_word_reduce(args) -> tuple[int, dict]:
    from .words import reduce_word, word
    m = len(args.word)  # its trace holds about m(m - 1) / 2 letters
    _check_cap(m * (m - 1) // 2, f"letter count of a {m}-letter word's trace")
    try:
        w = word(args.word)
        steps = reduce_word(w)
    except ValueError as exc:
        raise CliError(str(exc), code=1) from exc
    trace = [s.to_dict() for s in steps]
    _write_out(args.out, trace)
    return 0, {"word": w.letters,
               "steps": len(trace),
               "subdivisions": sum(1 for s in steps if s.op == "subdivide"),
               "trace": trace,
               "result": steps[-1].result.letters if steps else w.letters}


def _cmd_tile_info(args) -> tuple[int, dict]:
    from .complexes import euler_characteristic
    from .tiles import standard_morse_tile, standard_tile
    _check_cap(2 ** min(args.n + 1, 64), f"face count of a {args.n}-simplex")
    try:
        if args.l is None:
            tile = standard_tile(args.n, args.k)
        else:
            tile = standard_morse_tile(args.n, args.k, args.l)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    kind = tile.kind
    out = {"kind": kind.label,
           "dim": tile.dim,
           "order": tile.order,
           "index": tile.index,
           "removed_dim": tile.removed_dim,
           "chi": euler_characteristic(tile.extension),
           "open_faces": len(tile.extension),
           "tile": tile.to_dict()}
    return 0, out


_FLAGS: dict[str, dict] = {
    "--complex": {},
    "--tiling": {},
    "--field": {},
    "--out": {},
    "--start": {},
    "--iterations": {"type": int, "default": 1},
    "--n": {"type": int},
    "--k": {"type": int},
    "--l": {"type": int},
    # choices: generators.HANDLE_VARIANTS, read when handle's parser is built
    "--variant": {"default": "one-handle"},
    "--budget": {"type": int, "default": 10_000_000},
}

# subcommand -> (handler, required flags, optional flags); every subcommand
# also takes --format
_COMMANDS = {
    "verify-tiling": (_cmd_verify_tiling, ("--tiling",), ()),
    "verify-shelling": (_cmd_verify_shelling, ("--tiling",), ()),
    "shell-surface": (_cmd_shell_surface, ("--complex",), ("--start", "--out")),
    "search-shelling": (_cmd_search_shelling, ("--complex",),
                        ("--budget", "--out")),
    "subdivide": (_cmd_subdivide, (),
                  ("--tiling", "--complex", "--iterations", "--out")),
    "skeleton": (_cmd_skeleton, ("--n",), ("--tiling", "--complex", "--out")),
    "field": (_cmd_field, ("--tiling",), ("--out",)),
    "vpath-check": (_cmd_vpath_check, ("--field",), ("--tiling",)),
    "morse-function": (_cmd_morse_function, ("--tiling",), ("--out",)),
    "betti": (_cmd_betti, ("--complex",), ()),
    "inequalities": (_cmd_inequalities, ("--complex", "--tiling"), ()),
    "hcounts": (_cmd_hcounts, ("--tiling",), ()),
    "pack": (_cmd_pack, ("--tiling",), ("--out",)),
    "handle": (_cmd_handle, ("--n",), ("--variant", "--out")),
    "prism": (_cmd_prism, ("--n",), ("--out",)),
    "word-reduce": (_cmd_word_reduce, (), ("--out",)),
    "tile-info": (_cmd_tile_info, ("--n", "--k"), ("--l",)),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser with only the named subcommand's subparser when that is a
    known command, and with all of them otherwise (no command, --help, an
    unknown name)."""
    parser = _Parser(
        prog="morseshell",
        description="Morse tilings and shellings of simplicial complexes")
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    # a lone subparser's parent still lists every command in its usage line,
    # which an unrecognised argument prints
    metavar = None if len(names) > 1 else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, required, optional = _COMMANDS[name]
        p = sub.add_parser(name)
        if name == "word-reduce":
            p.add_argument("word")
        for flag in required:
            p.add_argument(flag, required=True, **_FLAGS[flag])
        for flag in optional:
            options = _FLAGS[flag]
            if flag == "--variant":
                from .generators import HANDLE_VARIANTS
                options = options | {"choices": HANDLE_VARIANTS}
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    report, fmt = None, None
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # after --help, or usage on stderr
            code = 2 if exc.code not in (0, None) else 0
        else:
            code, report = _COMMANDS[args.command][0](args)
            fmt = args.format
        _emit(report, fmt)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}, indent=2, sort_keys=True),
              file=sys.stderr)
        return exc.code
    return code


if __name__ == "__main__":
    sys.exit(main())
