"""Command-line front end: count, enumerate, map, verify, series, selftest.

Exit codes: 0 all good, 1 verification or class-membership failure, 2 usage
or parse error.  Output is deterministic; --format json-lines emits one JSON
record per line carrying the fields the plain rendering is built from.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Iterable

# series, acceptance and maps are imported by the commands that use them, so
# a call loads only what its subcommand runs.
from .partitions import (
    COUNT_METHODS,
    DEFAULT_ENUMERATION_CUTOFF,
    METHOD_DYNAMIC_PROGRAM,
    ClassMembershipError,
    Partition,
    PartitionClass,
    count_table,
    enumerate_class,
    normalize,
    parse_partition,
    render_class_d,
)

DEFAULT_ORDER = 200
# Largest --order, --n, --cutoff and map input weight accepted (Glaisher's
# split makes 2^k parts of one part 2^k).  Worst cases from tools/worst_case.py
# on a 2-vCPU Xeon, Python 3.11.7, fresh interpreters, median of 3 [range] and
# peak RSS (the README has every case): the slowest, enumerate --class D --n
# 100 --cutoff 100 (818,348 partitions), 7.3 s [6.9-7.7] and 153 MB; that
# count by enumeration 2.7 s [2.5-2.8] and 15 MB; verify --identity chain_C
# --order 2000 1.2 s [1.1-1.5] and 25 MB; a count at --n 1000 0.08-0.11 s,
# a map at weight 1000 0.06 s, start-up (--n 1) 0.08 s; selftest 0.62 s.
# Doubling --order or --n costs about 4x (O(N^2)); --cutoff 120 about 5x.
MAX_ORDER = 2000
MAX_N = 1000
MAX_CUTOFF = 100

CLASS_LETTERS = tuple(cls.value for cls in PartitionClass)
# Each --bijection's function in maps and the class of its image.
BIJECTIONS = {
    "glaisher": ("glaisher_to_odd", PartitionClass.B),
    "glaisher-inv": ("glaisher_to_distinct", PartitionClass.A),
    "d-reduce": ("d_reduce", PartitionClass.A),
    "d-lift": ("d_lift", PartitionClass.D),
    "c2b": ("c_to_b", PartitionClass.B),
    "b2c": ("b_to_c", PartitionClass.C),
}
# The fields of a verify record, each read from and into a VerificationReport.
VERIFY_FIELDS = ("name", "order", "passed", "exponent", "lhs", "rhs", "context")


class UsageError(ValueError):
    """Bad flag combination or value; maps to exit code 2."""


def _is_ascii_int(text: str) -> bool:
    """An optional '-' and ASCII digits [0-9]+, as in the partition grammar.

    int() alone would also take other Unicode digits, '_' and surrounding
    spaces; the sign is kept so that negative values reach the range checks.
    """
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _int_option(text: str) -> int:
    """argparse type of the integer options --order, --cutoff and --bit."""
    if not _is_ascii_int(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def parse_n_range(text: str) -> tuple[int, ...]:
    """'7' or inclusive '2..8', with every value in 0..MAX_N."""
    lo_text, sep, hi_text = text.partition("..")
    if not (_is_ascii_int(lo_text) and (_is_ascii_int(hi_text) or not sep)):
        raise UsageError(f"bad n range {text!r}")
    lo = int(lo_text)
    hi = int(hi_text) if sep else lo
    if hi < lo or lo < 0:
        raise UsageError(f"empty or negative n range {text!r}")
    if hi > MAX_N:
        raise UsageError(f"--n must be at most {MAX_N}")
    return tuple(range(lo, hi + 1))


def _render(p: Partition, cls: PartitionClass | None) -> str:
    if cls is PartitionClass.D:
        return render_class_d(p)
    return str(p)


def record_to_plain(record: dict) -> str:
    """Regenerate the plain-format line from a json-lines record."""
    kind = record["type"]
    if kind == "count":
        return f"{record['n']} {record['class']} {record['count']}"
    if kind == "enumeration":
        cls = PartitionClass(record["class"])
        return _render(normalize(record["parts"]), cls)
    if kind == "map":
        cls = PartitionClass(record["output_class"])
        rendered = _render(normalize(record["parts"]), cls)
        if record.get("case_number") is not None:
            return f"{rendered} (case {record['case_number']}, bit {record['bit']})"
        return rendered
    if kind == "verify":
        from .series import VerificationReport

        return VerificationReport(elapsed=0.0, **{k: record[k] for k in VERIFY_FIELDS}).summary()
    if kind == "series":
        return f"{record['exponent']}\t{record['coefficient']}"
    if kind == "selftest":
        status = "PASS" if record["passed"] else "FAIL"
        detail = f": {record['detail']}" if record.get("detail") else ""
        return f"[{status}] {record['criterion']}{detail}"
    raise UsageError(f"unknown record type {kind!r}")


def _emit(records: Iterable[dict], fmt: str) -> None:
    if fmt == "json-lines":
        import json  # deferred, so that plain output does not load it

        lines = (json.dumps(record, sort_keys=True) for record in records)
    else:
        lines = map(record_to_plain, records)
    for line in lines:
        print(line)


def _check_ranges(args: argparse.Namespace) -> None:
    """Reject out-of-range values, in the order --order, --cutoff, --n.

    Replaces the text of --n by its tuple of weights.
    """
    if "order" in args and not 0 < args.order <= MAX_ORDER:
        raise UsageError(f"--order must be in 1..{MAX_ORDER}")
    if "cutoff" in args and not 0 < args.cutoff <= MAX_CUTOFF:
        raise UsageError(f"--cutoff must be in 1..{MAX_CUTOFF}")
    if "n" in args:
        args.n = parse_n_range(args.n)
        if args.subcommand == "enumerate" and len(args.n) != 1:
            raise UsageError("enumerate takes a single weight, not a range")


def cmd_count(args: argparse.Namespace) -> int:
    cls = PartitionClass(args.cls)
    counts = count_table(cls, max(args.n), args.method, args.cutoff)
    records = [{"type": "count", "n": n, "class": cls.value, "count": counts[n]} for n in args.n]
    _emit(records, args.format)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    cls = PartitionClass(args.cls)
    (n,) = args.n
    records = (
        {"type": "enumeration", "n": n, "class": cls.value, "parts": list(p.parts)}
        for p in enumerate_class(n, cls, args.cutoff)
    )
    _emit(records, args.format)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    from . import maps

    name = args.bijection
    p = parse_partition(args.partition, allow_zeros=name == "d-reduce")
    if p.weight > MAX_N:
        raise UsageError(f"partition weight must be at most {MAX_N}")
    record = {"type": "map", "bijection": name, "input": list(p.parts)}
    function, out_cls = BIJECTIONS[name]
    apply = getattr(maps, function)  # looked up per call, so a rebinding reaches it
    if name == "d-lift":
        if args.bit is None:
            raise UsageError("d-lift needs --bit 0 or 1")
        image = apply(p, args.bit)
    elif name == "d-reduce":
        image, tag = apply(p)
        record.update({"case": tag.case.value, "case_number": tag.case_number, "bit": tag.bit})
    else:
        image = apply(p)
    record.update({"parts": list(image.parts), "output_class": out_cls.value})
    _emit([record], args.format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .series import verify_identity

    report = verify_identity(args.identity, args.order)
    record = {"type": "verify", **{k: getattr(report, k) for k in VERIFY_FIELDS}}
    _emit([record], args.format)
    return 0 if report.passed else 1


def cmd_series(args: argparse.Namespace) -> int:
    from .series import gf_c_chain_stage, gf_c_variant, gf_class

    # argparse's required group gives exactly one of --class, --form, --stage
    if args.cls is not None:
        series = gf_class(PartitionClass(args.cls), args.order)
    elif args.form is not None:
        series = gf_c_variant(args.form, args.order)
    else:
        series = gf_c_chain_stage(args.stage, args.order)
    records = [
        {"type": "series", "exponent": n, "coefficient": c}
        for n, c in enumerate(series.coeffs)
    ]
    _emit(records, args.format)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import run_all

    results = run_all(args.only)
    records = [
        {
            "type": "selftest",
            "criterion": r.name,
            "passed": r.passed,
            "detail": r.detail,
        }
        for r in results
    ]
    _emit(records, args.format)
    return 0 if all(r.passed for r in results) else 1


def _count_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="cls", choices=CLASS_LETTERS, required=True)
    p.add_argument("--n", required=True, help="single value or inclusive range a..b")
    p.add_argument("--method", choices=COUNT_METHODS, default=METHOD_DYNAMIC_PROGRAM)
    p.add_argument("--cutoff", type=_int_option, default=DEFAULT_ENUMERATION_CUTOFF)


def _enumerate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--class", dest="cls", choices=CLASS_LETTERS, required=True)
    p.add_argument("--n", required=True, help="single weight")
    p.add_argument("--cutoff", type=_int_option, default=DEFAULT_ENUMERATION_CUTOFF)


def _map_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bijection", choices=BIJECTIONS, required=True)
    p.add_argument("--bit", type=_int_option, choices=(0, 1), default=None)
    p.add_argument("partition", help="partition string like 4+2+1")


def _verify_arguments(p: argparse.ArgumentParser) -> None:
    from .series import IDENTITY_NAMES

    p.add_argument("--identity", choices=IDENTITY_NAMES, required=True)
    p.add_argument("--order", type=_int_option, default=DEFAULT_ORDER)


def _series_arguments(p: argparse.ArgumentParser) -> None:
    from .series import C_FORMS, CHAIN_STAGES

    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--class", dest="cls", choices=CLASS_LETTERS)
    group.add_argument("--form", choices=C_FORMS)
    group.add_argument("--stage", choices=CHAIN_STAGES)
    p.add_argument("--order", type=_int_option, default=DEFAULT_ORDER)


def _selftest_arguments(p: argparse.ArgumentParser) -> None:
    from .acceptance import CRITERIA

    p.add_argument("--only", action="append", choices=tuple(CRITERIA), default=None)


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, constructed when argparse first dispatches to it.

    add_parser only stores the parser and the dispatch only calls its
    parse_known_args, so the ArgumentParser constructor, the arguments and
    --format all wait until then: a call constructs its own subcommand's
    parser and no other, and top-level help and errors construct none.
    """

    def __init__(self, *, arguments: Callable[[argparse.ArgumentParser], None], **kwargs) -> None:
        self._deferred = (arguments, kwargs)

    def parse_known_args(self, args=None, namespace=None):
        if self._deferred is not None:
            arguments, kwargs = self._deferred
            self._deferred = None
            super().__init__(**kwargs)
            arguments(self)
            self.add_argument("--format", choices=("plain", "json-lines"), default="plain")
        return super().parse_known_args(args, namespace)


# Each subcommand's help, argument builder and command, in the order of --help.
COMMANDS = {
    "count": ("count partitions of one class", _count_arguments, cmd_count),
    "enumerate": ("list partitions of one class", _enumerate_arguments, cmd_enumerate),
    "map": ("apply one of the class maps", _map_arguments, cmd_map),
    "verify": ("run one identity check", _verify_arguments, cmd_verify),
    "series": ("dump a generating function as TSV", _series_arguments, cmd_series),
    "selftest": ("run the acceptance suite", _selftest_arguments, cmd_selftest),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="Count, list, map, and verify the four partition classes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Subcommand)
    for name, (help_text, arguments, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text, arguments=arguments)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed the usage message
        return int(exc.code or 0)
    try:
        _check_ranges(args)
        _, _, command = COMMANDS[args.subcommand]
        return command(args)
    except ClassMembershipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # UsageError, parse errors, cutoff, bad flags
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
