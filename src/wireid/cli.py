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
builds no reference cycles) and then back in its caller's state. construct
and simulate list their fields once, for both formats: _jsonout.document
writes them to stdout in one writelines call, each field in bounded pieces.
bounds writes its table the same way, as a head with no fields: structured,
the bytes of json.dumps(indent=2) without json's indenting encoder.
The commands' arguments are declared once, in _COMMANDS. main reads the plain form of argv straight from
that table (_plain_args): a command, then its flags named in full, each with a value that does not start
with "-", or verify and its one path. Every other argv (help, an abbreviation, --n=5, --, a negative value,
a usage error) goes to the argparse parser build_parser makes from the same table, so help text, usage
lines, error messages and exit 3 are argparse's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from itertools import chain, repeat

from ._jsonout import _sorted_runs, document
from .cable import TRANSCRIPT_SCHEMA, ProtocolError, _phases, _transcript_fields, make_cable
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
    fields = [("a_sets", a_rows, -1, "{}"), ("b_sets", b_rows, -1, "{}")]
    if args.format == STRUCTURED:
        head = {"schema": CONSTRUCTION_SCHEMA, "n": n, "m": rep.m, "t": rep.t, "s": rep.s, "k": rep.k,
                "matrix": _text(rows).splitlines()}
    else:
        head = f"n={n} m={rep.m}\nt={format_degree_sequence(rep.t)}\ns={rep.s} k={rep.k}\nmatrix:\n" + _text(rows)
    sys.stdout.writelines(document(head, fields, args.format == STRUCTURED))
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.max_m < 1:
        raise ValueError("--max-m must be at least 1")
    if args.max_m > MAX_M:
        raise ValueError(f"--max-m must be at most {MAX_M}, the largest order of any n up to {MAX_N}, got {args.max_m}")
    rows = [(m, min_elements(m), max_elements(m)) for m in range(1, args.max_m + 1)]
    if args.format == STRUCTURED:
        head = {"schema": BOUNDS_SCHEMA, "rows": [{"m": m, "min_n": lo, "max_n": hi} for m, lo, hi in rows]}
    else:
        head = "".join(f"{m} {lo} {hi}\n" for m, lo, hi in rows)
    sys.stdout.writelines(document(head, [], args.format == STRUCTURED))
    return EXIT_OK


def cmd_verify(args) -> int:
    """Judge the parsed lists by partitions._verdict: its cell grid decides, and the order is its matrix's
    row count. The sets are frozen (a set may repeat a label: it counts once) but never sorted, and only when
    the lists are not exact partitions of 1..n."""
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
    del text  # the lists are read: the judgement need not hold the document too
    rows, problems = _verdict(_capped(n), a_sets, b_sets)
    if problems:
        _print_error(*problems)
        return EXIT_INVALID
    print(f"valid Knowlton-Graham pair: n={n} order={len(rows)}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cable = make_cable(_capped(args.n), args.seed)  # rejects a bad seed before the construction runs
    rep, rows = _checked_construction(args.n, args.m)
    # The construction vouches for its pair: run_protocol's check of it would repeat the construction's. End A
    # joins its A-sets (label x of row j in a set of j); end B assembles its B-sets off the grid. No set is frozen.
    a_rows = _rows(range(1, args.n + 1), rep.t)
    size_a = [0, *chain.from_iterable(map(repeat, range(1, rep.m + 1), rep.t))]
    probe_1, b_groups, size_b, probe_2 = _phases(rows, size_a, cable.wiring)
    # Probes and coordinates are set sizes, at most m: the writer looks them up in its tables.
    fields = _transcript_fields(a_rows, size_a, probe_1, _sorted_runs(b_groups), size_b, probe_2, rep.m)
    head = {"schema": TRANSCRIPT_SCHEMA} if args.format == STRUCTURED else f"n={args.n} m={rep.m} seed={args.seed}\n"
    sys.stdout.writelines(document(head, fields, args.format == STRUCTURED))
    return EXIT_OK


def _print_error(*lines: str) -> None:
    """The lines on stderr. A stderr that cannot take them (its reader gone, or fd 2 closed)
    leaves the exit status standing: the lines are dropped."""
    with contextlib.suppress(OSError):
        if sys.stderr is not None:  # None when fd 2 was closed before startup; print would pick stdout
            print(*lines, sep="\n", file=sys.stderr)


_FORMAT = {"choices": (GRID, STRUCTURED), "default": GRID}
_M = {"type": int, "default": None, "help": "order (smallest feasible if omitted)"}

# Each command's help line, function and arguments, the arguments as add_argument takes them. build_parser and
# _plain_args both read this one table, so the direct reader takes argparse's types, choices and defaults.
_COMMANDS = {
    "construct": ("build a partition pair for n elements", cmd_construct, {
        "--n": {"type": int, "required": True, "help": "number of elements"},
        "--m": _M,
        "--format": _FORMAT,
    }),
    "bounds": ("feasible n range per order", cmd_bounds, {
        "--max-m": {"type": int, "required": True, "help": f"largest order to tabulate (at most {MAX_M})"},
        "--format": _FORMAT,
    }),
    "verify": ("check a serialized partition pair", cmd_verify, {
        "path": {"help": "partition document, or - for stdin"},
    }),
    "simulate": ("run the two-ended identification protocol", cmd_simulate, {
        "--n": {"type": int, "required": True, "help": "number of wires"},
        "--m": _M,
        "--seed": {"type": int, "default": 0, "help": "hidden wiring seed, non-negative (0 = identity)"},
        "--format": _FORMAT,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wireid", description="Knowlton-Graham partitions and cable wire identification")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (summary, func, arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        for name, spec in arguments.items():
            command_parser.add_argument(name, **spec)
        command_parser.set_defaults(func=func)
    return parser


def _plain_args(argv: list) -> argparse.Namespace | None:
    """The Namespace build_parser().parse_args(argv) returns, read without building a parser, when argv is in
    the plain form: a command, then its flags, each named in full and followed by a value that does not start
    with "-", and its positional (verify's path: "-", or a path that does not start with "-"). None for any
    other argv (help, an abbreviation, --n=5, --, a value that starts with "-", an unknown token, a missing
    flag, a bad int or choice, an item that is not a str): argparse alone reads it, and words its errors."""
    if not argv or any(type(token) is not str for token in argv) or argv[0] not in _COMMANDS:
        return None
    _, func, arguments = _COMMANDS[argv[0]]
    positionals = [name for name in arguments if not name.startswith("-")]
    values, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token.startswith("-") and token != "-":
            name, value = token, next(tokens, None)
            if name not in arguments or value is None or value.startswith("-"):
                return None
        elif positionals:
            name, value = positionals.pop(0), token
        else:
            return None
        spec = arguments[name]
        try:
            value = spec.get("type", str)(value)  # int(), as type=int calls it
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[name] = value
    if positionals or any(spec.get("required") and name not in values for name, spec in arguments.items()):
        return None
    namespace = argparse.Namespace(command=argv[0], func=func)
    for name, spec in arguments.items():
        setattr(namespace, name.lstrip("-").replace("-", "_"), values.get(name, spec.get("default")))
    return namespace


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
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
