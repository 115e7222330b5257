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
import sys
from typing import Any

from .complexes import (
    SimplicialComplex,
    barycentric_subdivision,
    betti_numbers_mod2,
    euler_characteristic,
    skeleton,
)
from .generators import HANDLE_VARIANTS, handle_tiling, prism_triangulation, shell_surface
from .morse import (
    CyclicFieldError,
    DiscreteVectorField,
    compatible_field,
    find_closed_vpath,
    morse_function,
    morse_inequalities_report,
    validate_field,
    validate_morse_function,
)
from .tiles import standard_morse_tile, standard_tile
from .tiling import (
    MorseTiling,
    SearchBudgetExceeded,
    critical_vector,
    h_table,
    pack_simplices,
    search_shelling,
    skeleton_tiling,
    subdivide_tiling,
    validate_shelling,
    validate_tiling,
)
from .words import reduce_word, word


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


def _load_complex(path: str) -> SimplicialComplex:
    data = _load_json(path)
    try:
        return SimplicialComplex.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad complex file {path}: {exc}") from exc


def _load_tiling(path: str) -> MorseTiling:
    data = _load_json(path)
    try:
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


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key in sorted(report):
            value = report[key]
            if isinstance(value, list) and value and isinstance(value[0], str):
                print(f"{key}:")
                for line in value:
                    print(f"  {line}")
            else:
                print(f"{key}: {value}")


def _tiling_errors(t: MorseTiling) -> dict | None:
    """The invalid-tiling report, or None when the tiling is valid."""
    rep = validate_tiling(t)
    return None if rep.valid else {"valid": False, "errors": rep.errors}


def _tiling_summary(t: MorseTiling) -> dict:
    cv = critical_vector(t)
    return {"tiles": len(t.tiles),
            "carrier_faces": len(t.carrier),
            "critical_vector": list(cv.counts),
            "euler_characteristic": cv.euler_characteristic}


# -- subcommand handlers -----------------------------------------------------


def _cmd_verify_tiling(args) -> tuple[int, dict]:
    t = _load_tiling(args.tiling)
    rep = validate_tiling(t)
    out = {"valid": rep.valid, "errors": rep.errors} | _tiling_summary(t)
    return (0 if rep.valid else 1), out


def _cmd_verify_shelling(args) -> tuple[int, dict]:
    t = _load_tiling(args.tiling)
    if not t.ordered:
        raise CliError("tiling file is not marked as ordered", code=1)
    rep = validate_shelling(t)
    out = {"valid": rep.valid, "errors": rep.errors} | _tiling_summary(t)
    return (0 if rep.valid else 1), out


def _cmd_shell_surface(args) -> tuple[int, dict]:
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


def _cmd_subdivide(args) -> tuple[int, dict]:
    if not (args.tiling or args.complex):
        raise CliError("subdivide needs --tiling or --complex")
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
        sizes, noun = [tile.dim + 1 for tile in t.tiles], "tile"
    else:
        K = _load_complex(args.complex)
        sizes, noun = [len(m) for m in K.maximal_simplices], "maximal simplex"
    # a simplex on s vertices splits into s! per round
    _check_cap(sum(math.factorial(s) ** args.iterations for s in sizes),
               f"{noun} count after {args.iterations} subdivisions")
    if args.tiling:
        out_tiling = subdivide_tiling(t, args.iterations)
        _write_out(args.out, out_tiling.to_dict())
        return 0, _tiling_summary(out_tiling)
    for _ in range(args.iterations):
        K = barycentric_subdivision(K).complex
    _write_out(args.out, K.to_dict())
    return 0, {"faces": len(K.faces), "f_vector": list(K.f_vector)}


def _cmd_skeleton(args) -> tuple[int, dict]:
    if args.n < 0:
        raise CliError("--n must be non-negative")
    if args.tiling:
        t = _load_tiling(args.tiling)
        if bad := _tiling_errors(t):
            return 1, bad
        s = skeleton_tiling(t, args.n)
        _write_out(args.out, s.to_dict())
        return 0, _tiling_summary(s)
    if args.complex:
        K = _load_complex(args.complex)
        s = skeleton(K, args.n)
        _write_out(args.out, s.to_dict())
        return 0, {"faces": len(s.faces), "f_vector": list(s.f_vector)}
    raise CliError("skeleton needs --tiling or --complex")


def _cmd_field(args) -> tuple[int, dict]:
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
    K = _load_complex(args.complex)
    b = betti_numbers_mod2(K)
    return 0, {"betti_mod2": b,
               "euler_characteristic": euler_characteristic(K.faces),
               "f_vector": list(K.f_vector)}


def _cmd_inequalities(args) -> tuple[int, dict]:
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
    t = _load_tiling(args.tiling)
    if bad := _tiling_errors(t):
        return 1, bad
    sd = barycentric_subdivision(t.ambient)
    packed = pack_simplices(t, sd)
    used: set[int] = set()
    disjoint = True
    for s in packed:
        if used & set(s):
            disjoint = False
        used.update(s)
    tab = h_table(t)
    per_dim: dict[int, int] = {}
    for s in packed:
        per_dim[len(s) - 1] = per_dim.get(len(s) - 1, 0) + 1
    bound_ok = all(per_dim.get(j, 0) >= tab.basic.get((j, 0), 0)
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
    "--variant": {"choices": HANDLE_VARIANTS, "default": "one-handle"},
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morseshell",
        description="Morse tilings and shellings of simplicial complexes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, required, optional) in _COMMANDS.items():
        p = sub.add_parser(name)
        if name == "word-reduce":
            p.add_argument("word")
        for flag in required:
            p.add_argument(flag, required=True, **_FLAGS[flag])
        for flag in optional:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler = _COMMANDS[args.command][0]
    try:
        code, report = handler(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc)}, indent=2, sort_keys=True),
              file=sys.stderr)
        return exc.code
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
