"""Command line front end: construct, bounds, verify, simulate.

Exit statuses are stable: 0 success, 1 infeasible input, 2 verification
failure, 3 parse or usage error (n above MAX_N = 10**6 in construct,
simulate and verify, and bounds' --max-m above MAX_M = 1413, included), 4
internal error (an output check failed, the construction rejected its own
representation, or any other unexpected exception, a MemoryError below
MAX_N included: ``error: internal error: MemoryError: ...``). Past verify's
2, commands raise: main alone turns a failure into its status and one
``error:`` line on stderr, never a traceback. A reader closing stdout early gets 0 and no stderr line;
one closing stderr early, or a closed fd 2, changes no status. Wire positions are the ints 1..n, no bools.
The cyclic garbage collector is off while a command runs (the pipeline
builds no reference cycles) and then back in its caller's state.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from itertools import chain, repeat

from ._jsonout import IntRuns, _paired_runs, _sorted_runs, dict_pieces, format_int_runs
from .cable import ProtocolError, _phases, _transcript_pieces, make_cable
from .matrices import _text, format_degree_sequence
from .partitions import (
    PARTITION_SCHEMA,
    ConstructionError,
    InfeasibleOrderError,
    _checked_construction,
    _grid_columns,
    _read_partition,
    _rows,
    _verdict,
    max_elements,
    min_elements,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_INVALID = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

CONSTRUCTION_SCHEMA = "kg-construction/1"
BOUNDS_SCHEMA = "kg-bounds/1"

GRID, STRUCTURED = "grid", "structured"

MAX_N = 10**6  # the largest n construct, simulate and verify take, so each bounds its work and memory
MAX_M = 1413  # the largest order of any n up to MAX_N, and the largest --max-m bounds takes


class _Parser(argparse.ArgumentParser):
    # argparse's usage errors exit 2, which is verify's verdict here; they exit 3.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wireid", description="Knowlton-Graham partitions and cable wire identification")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    construct = sub.add_parser("construct", help="build a partition pair for n elements")
    construct.add_argument("--n", type=int, required=True, help="number of elements")
    construct.add_argument("--m", type=int, default=None, help="order (smallest feasible if omitted)")
    construct.add_argument("--format", choices=(GRID, STRUCTURED), default=GRID)
    construct.set_defaults(func=cmd_construct)

    bounds = sub.add_parser("bounds", help="feasible n range per order")
    bounds.add_argument("--max-m", type=int, required=True, help=f"largest order to tabulate (at most {MAX_M})")
    bounds.add_argument("--format", choices=(GRID, STRUCTURED), default=GRID)
    bounds.set_defaults(func=cmd_bounds)

    verify = sub.add_parser("verify", help="check a serialized partition pair")
    verify.add_argument("path", help="partition document, or - for stdin")
    verify.set_defaults(func=cmd_verify)

    simulate = sub.add_parser("simulate", help="run the two-ended identification protocol")
    simulate.add_argument("--n", type=int, required=True, help="number of wires")
    simulate.add_argument("--m", type=int, default=None, help="order (smallest feasible if omitted)")
    simulate.add_argument("--seed", type=int, default=0, help="hidden wiring seed, non-negative (0 = identity)")
    simulate.add_argument("--format", choices=(GRID, STRUCTURED), default=GRID)
    simulate.set_defaults(func=cmd_simulate)

    return parser


def _braces(size: int) -> str:
    return "{" + ",".join(["%d"] * size) + "}"


def _parens(size: int) -> str:
    return "(" + ",".join(["%d"] * size) + ")"


def _bare(size: int) -> str:
    return ",".join(["%d"] * size)


def _capped(n: int) -> int:
    """n, unless it exceeds MAX_N: then ValueError (exit 3), before anything of size n is built."""
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}, got n={n}")
    return n


def cmd_construct(args) -> int:
    n = _capped(args.n)
    rep, rows = _checked_construction(n, args.m)
    # Both sides in canonical order, as the construction cut the labels 1..n (see partitions._check_cuts).
    a_rows, b_rows = _rows(range(1, n + 1), rep.t), _grid_columns(rows)
    if args.format == STRUCTURED:
        payload = {
            "schema": CONSTRUCTION_SCHEMA,
            "n": n,
            "m": rep.m,
            "t": rep.t,
            "s": rep.s,
            "k": rep.k,
            "matrix": _text(rows).splitlines(),
            "a_sets": a_rows,
            "b_sets": b_rows,
        }
        sys.stdout.writelines(dict_pieces(payload.items(), {}))
        sys.stdout.write("\n")
    else:
        print(f"n={n} m={rep.m}")
        print(f"t={format_degree_sequence(rep.t)}")
        print(f"s={rep.s} k={rep.k}")
        print("matrix:")
        sys.stdout.write(_text(rows))
        print("a_sets:", format_int_runs(a_rows, _braces, " "))
        print("b_sets:", format_int_runs(b_rows, _braces, " "))
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.max_m < 1:
        raise ValueError("--max-m must be at least 1")
    if args.max_m > MAX_M:
        raise ValueError(f"--max-m must be at most {MAX_M}, the largest order of any n up to {MAX_N}, got {args.max_m}")
    rows = [(m, min_elements(m), max_elements(m)) for m in range(1, args.max_m + 1)]
    if args.format == STRUCTURED:
        payload = {
            "schema": BOUNDS_SCHEMA,
            "rows": [{"m": m, "min_n": lo, "max_n": hi} for m, lo, hi in rows],
        }
        print(json.dumps(payload, indent=2))
    else:
        for m, lo, hi in rows:
            print(f"{m} {lo} {hi}")
    return EXIT_OK


def cmd_verify(args) -> int:
    """Judge the parsed lists by partitions._verdict: their cell keys decide, and the sets are frozen
    (a set may repeat a label: it counts once) but never sorted, and only when the lists are not exact
    partitions of 1..n."""
    try:
        if args.path != "-":
            with open(args.path, encoding="utf-8") as source:
                text = source.read()
        elif sys.stdin is None:  # fd 0 was closed before startup
            raise OSError("stdin is closed")
        elif hasattr(sys.stdin, "buffer"):  # decoded as strictly as a file, whatever stdin's error handler
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {args.path}: {exc}") from exc
    n, a_sets, b_sets = _read_partition(text, (PARTITION_SCHEMA, CONSTRUCTION_SCHEMA))
    order, problems = _verdict(_capped(n), a_sets, b_sets)
    if problems:
        _print_error(*problems)
        return EXIT_INVALID
    print(f"valid Knowlton-Graham pair: n={n} order={order}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cable = make_cable(_capped(args.n), args.seed)  # rejects a bad seed before the construction runs
    rep, rows = _checked_construction(args.n, args.m)
    # The construction vouches for its pair: run_protocol's check of it would repeat the construction's. End A
    # joins its A-sets (label x of row j in a set of j); end B assembles its B-sets off the grid. No set is frozen.
    a_rows = _rows(range(1, args.n + 1), rep.t)
    size_a = [0, *chain.from_iterable(map(repeat, range(1, rep.m + 1), rep.t))]
    probe_1, b_groups, size_b, probe_2 = _phases(rows, size_a, cable.wiring)
    b_rows = _sorted_runs(b_groups)
    # Probes and coordinates are set sizes, at most m: format_int_runs writes them through its tables.
    if args.format == STRUCTURED:
        sys.stdout.writelines(_transcript_pieces(a_rows, size_a, probe_1, b_rows, size_b, probe_2, rep.m))
    else:
        print(f"n={args.n} m={rep.m} seed={args.seed}")
        print("phase1_plan:", format_int_runs(a_rows, _braces, " "))
        print("phase1_probe:", format_int_runs(IntRuns(probe_1, [(args.n, 1)]), _bare, "", rep.m))
        print("phase2_plan:", format_int_runs(b_rows, _braces, " "))
        print("phase2_probe:", format_int_runs(IntRuns(probe_2, [(args.n, 1)]), _bare, "", rep.m))
        print("coords_a:", format_int_runs(_paired_runs(size_a[1:], probe_2), _parens, " ", rep.m))
        print("coords_b:", format_int_runs(_paired_runs(probe_1, size_b[1:]), _parens, " ", rep.m))
    return EXIT_OK


def _print_error(*lines: str) -> None:
    """The lines on stderr. A stderr that cannot take them (its reader gone, or fd 2 closed)
    leaves the exit status standing: the lines are dropped."""
    with contextlib.suppress(OSError):
        if sys.stderr is not None:  # None when fd 2 was closed before startup; print would pick stdout
            print(*lines, sep="\n", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader closed stdout early; devnull takes the interpreter's last flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except InfeasibleOrderError as exc:
        _print_error(f"error: {exc}")
        return EXIT_INFEASIBLE
    except ValueError as exc:  # nonpositive sizes and the like
        _print_error(f"error: {exc}")
        return EXIT_USAGE
    except (ConstructionError, ProtocolError) as exc:
        _print_error(f"error: internal check failed: {exc}")
        return EXIT_INTERNAL
    except Exception as exc:
        _print_error(f"error: internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
