"""Per-layer tracing from outside the program.

The tracer rebinds public eulerlab functions, in every module namespace that
holds them, to wrappers that time each call.  Self time comes from a stack of
open calls: a call's self time is its duration minus the time spent in the
wrapped calls it made.  Hot leaf functions (is_in_class, the series kernel,
the maps) run tens of thousands of times per pass, so every function is
aggregated into per-name counters instead of one record per call, which keeps
memory flat.  Wrapper bookkeeping is charged to neither the callee nor the
caller's self time.

The table PER_LAYER names every per-layer metric, its unit, and the
end-to-end metric and workload it is expected to move.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

from workloads import C_FORMS, CHAIN_STAGES, IDENTITIES

SERIES_WALL = "series_verify.wall_s"
LISTING_WALL = "listing_maps.wall_s"

# Fields of per-layer metrics that repeat exactly from run to run.
COUNTS = ("calls", "coeff_ops", "listed", "repeat_frac", "stdout_bytes")

CLASSES = ("A", "B", "C", "D")
COUNT_METHODS = ("enumeration", "dynamic-program", "series-coefficient")
MAPS = ("glaisher_to_odd", "glaisher_to_distinct", "c_to_b", "b_to_c", "d_reduce", "d_lift")
# Criteria some workload runs, and the workload whose wall time each one feeds.
CRITERIA = {
    "golden_table": LISTING_WALL,
    "theorem_by_enumeration": LISTING_WALL,
    "bijection_suite": LISTING_WALL,
    "c_forms_match_b": SERIES_WALL,
    "euler_expansion": SERIES_WALL,
}


def _layer_table() -> list[tuple[str, str, str]]:
    """(metric name, unit, what it is expected to move)."""
    rows = []
    kernel_moves = f"{SERIES_WALL}; cli_mix.p99_ms (a little)"
    for fn in ("pochhammer", "reciprocal", "mul"):
        rows += [
            (f"series.kernel.{fn}.calls", "count", kernel_moves),
            (f"series.kernel.{fn}.self_s", "s", kernel_moves),
            (f"series.kernel.{fn}.coeff_ops", "computed_ops", kernel_moves),
        ]
    build_moves = f"{SERIES_WALL} (memoization may raise series_verify.peak_rss_mb)"
    rows += [(f"series.build.gf_class.{c}.total_s", "s", build_moves) for c in CLASSES]
    rows += [(f"series.build.gf_c_variant.{f}.total_s", "s", build_moves) for f in C_FORMS]
    rows += [(f"series.build.gf_c_chain_stage.{s}.total_s", "s", build_moves) for s in CHAIN_STAGES]
    rows += [
        ("series.build.calls", "count", build_moves),
        ("series.build.repeat_frac", "frac", build_moves),
    ]
    compare_moves = f"{SERIES_WALL} (small share)"
    rows += [(f"series.compare.{i}.self_s", "s", compare_moves) for i in IDENTITIES]
    rows.append(("series.compare.euler_expansion.self_s", "s", compare_moves))
    for c in CLASSES:
        rows += [
            (f"partitions.enumerate.{c}.total_s", "s", LISTING_WALL),
            (f"partitions.enumerate.{c}.listed", "count", LISTING_WALL),
        ]
    rows += [
        ("partitions.enumerate.repeat_frac", "frac", LISTING_WALL),
        ("partitions.is_in_class.calls", "count", LISTING_WALL),
        ("partitions.is_in_class.self_s", "s", LISTING_WALL),
    ]
    rows += [(f"partitions.count_table.{m}.total_s", "s", "cli_mix.p99_ms") for m in COUNT_METHODS]
    rows.append(("partitions.parse_partition.self_s", "s", "cli_mix.p50_ms"))
    for m in MAPS:
        rows += [(f"maps.{m}.calls", "count", LISTING_WALL), (f"maps.{m}.self_s", "s", LISTING_WALL)]
    rows += [(f"acceptance.{c}.total_s", "s", moves) for c, moves in CRITERIA.items()]
    cli_moves = "cli_mix.p50_ms; cli_mix.req_per_s; setup_s"
    rows += [
        ("cli.main.self_s", "s", cli_moves),
        ("cli.build_parser.calls", "count", cli_moves),
        ("cli.build_parser.self_s", "s", cli_moves),
        ("cli.stdout_bytes", "bytes", cli_moves),
        ("trace.overhead_s", "s", "nothing; traced wall_s minus untraced wall_s of one pass"),
        ("trace.overhead_frac", "frac", "nothing; trace.overhead_s over untraced wall_s"),
    ]
    return rows


PER_LAYER = _layer_table()


class _Stat:
    __slots__ = ("calls", "total", "self", "ops")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.ops = 0


def library_modules(lib) -> list[types.ModuleType]:
    """The eulerlab package and every module of it that binds public functions."""
    return [lib.package, lib.series, lib.partitions, lib.maps, lib.acceptance, lib.cli]


def rebind(modules: list[types.ModuleType], original, replacement) -> int:
    """Replace `original` by `replacement` wherever a module namespace binds it.

    Dict values one level down are covered too (acceptance.CRITERIA holds the
    criteria that `selftest` runs).  Returns the number of bindings replaced.
    """
    replaced = 0
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if value is original:
                namespace[name] = replacement
                replaced += 1
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement
                        replaced += 1
    return replaced


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _poch_ops(args, kwargs, result) -> int:
    """Inner-loop steps of pochhammer: order - e + 1 for each factor exponent e."""
    spec, order = args[0], _arg(args, kwargs, 1, "order")
    if spec.offset > order:
        return 0
    k = (order - spec.offset) // spec.step + 1
    if spec.terms is not None:
        k = min(k, spec.terms)
    return k * (order - spec.offset + 1) - spec.step * k * (k - 1) // 2


def _nonzero_tail_ops(coeffs, order: int, start: int) -> int:
    """Sum of (order + 1 - i) over nonzero coefficients i >= start."""
    return sum(order + 1 - i for i in range(start, order + 1) if coeffs[i])


def _mul_ops(args, kwargs, result) -> int:
    a, b = args
    if isinstance(b, int):
        return a.order + 1
    order = min(a.order, b.order)
    return _nonzero_tail_ops(a.coeffs, order, 0)


def _reciprocal_ops(args, kwargs, result) -> int:
    a = args[0]
    return _nonzero_tail_ops(a.coeffs, a.order, 1)


def _listed(args, kwargs, result) -> int:
    return len(result)


class Tracer:
    """Wraps eulerlab's public functions and aggregates their timings."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.stack: list[float] = []
        self.seen: dict[str, set] = {"build": set(), "enumerate": set()}
        self.repeats = {"build": 0, "enumerate": 0}
        self.calls = {"build": 0, "enumerate": 0}

    def _note(self, group: str, key) -> None:
        self.calls[group] += 1
        if key in self.seen[group]:
            self.repeats[group] += 1
        else:
            self.seen[group].add(key)

    def wrap(self, fn, label, count=None, repeat=None):
        """Time calls of fn under the name label(args, kwargs).

        count(args, kwargs, result) adds to the name's work counter;
        repeat(args, kwargs) gives (group, key) for repeat detection.
        """
        stats, stack, clock = self.stats, self.stack, perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = clock()
            name = label(args, kwargs)
            stat = stats.get(name)
            if stat is None:
                stat = stats[name] = _Stat()
            if repeat is not None:
                self._note(*repeat(args, kwargs))
            stack.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                child = stack.pop()
                stat.calls += 1
                stat.total += t1 - t0
                stat.self += t1 - t0 - child
                if count is not None and result is not None:
                    stat.ops += count(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - entry

        return wrapper

    def install(self, lib) -> None:
        """Wrap the public functions of lib.series/partitions/maps/acceptance/cli."""
        series, partitions, maps, acceptance, cli = (
            lib.series, lib.partitions, lib.maps, lib.acceptance, lib.cli
        )
        modules = library_modules(lib)

        def fixed(name):
            return lambda args, kwargs: name

        def put(module, attr, label, count=None, repeat=None):
            original = getattr(module, attr)
            wrapped = self.wrap(original, label, count, repeat)
            if rebind(modules, original, wrapped) == 0:
                raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere")

        ts = series.TruncatedSeries
        ts.__mul__ = self.wrap(ts.__mul__, fixed("series.kernel.mul"), _mul_ops)
        ts.reciprocal = self.wrap(ts.reciprocal, fixed("series.kernel.reciprocal"), _reciprocal_ops)
        put(series, "pochhammer", fixed("series.kernel.pochhammer"), _poch_ops)
        put(
            series,
            "gf_class",
            lambda a, k: f"series.build.gf_class.{_arg(a, k, 0, 'cls').value}",
            repeat=lambda a, k: ("build", ("gf_class", _arg(a, k, 0, "cls"), _arg(a, k, 1, "order"))),
        )
        put(
            series,
            "gf_c_variant",
            lambda a, k: f"series.build.gf_c_variant.{_arg(a, k, 0, 'form')}",
            repeat=lambda a, k: (
                "build",
                (
                    "gf_c_variant",
                    _arg(a, k, 0, "form"),
                    _arg(a, k, 1, "order"),
                    _arg(a, k, 2, "include_constant", True),
                ),
            ),
        )
        put(
            series,
            "gf_c_chain_stage",
            lambda a, k: f"series.build.gf_c_chain_stage.{_arg(a, k, 0, 'stage')}",
            repeat=lambda a, k: (
                "build",
                ("gf_c_chain_stage", _arg(a, k, 0, "stage"), _arg(a, k, 1, "order")),
            ),
        )
        put(series, "verify_identity", lambda a, k: f"series.compare.{_arg(a, k, 0, 'name')}")
        put(series, "euler_expansion_check", fixed("series.compare.euler_expansion"))
        put(
            partitions,
            "enumerate_class",
            lambda a, k: f"partitions.enumerate.{_arg(a, k, 1, 'cls').value}",
            _listed,
            repeat=lambda a, k: ("enumerate", (_arg(a, k, 0, "n"), _arg(a, k, 1, "cls"))),
        )
        put(partitions, "is_in_class", fixed("partitions.is_in_class"))
        put(
            partitions,
            "count_table",
            lambda a, k: "partitions.count_table."
            + _arg(a, k, 2, "method", partitions.METHOD_DYNAMIC_PROGRAM),
        )
        put(partitions, "parse_partition", fixed("partitions.parse_partition"))
        for name in MAPS:
            put(maps, name, fixed(f"maps.{name}"))
        for name in CRITERIA:
            put(acceptance, name, fixed(f"acceptance.{name}"))
        put(cli, "main", fixed("cli.main"))
        put(cli, "build_parser", fixed("cli.build_parser"))

    def _stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def metrics(self, stdout_bytes: int, time_scale: float) -> dict[str, float]:
        """Every PER_LAYER metric except the trace overhead, which needs two passes.

        Times are multiplied by time_scale, the pass's machine-speed factor.
        """
        out: dict[str, float] = {}
        for metric, _unit, _moves in PER_LAYER:
            prefix, _, field = metric.rpartition(".")
            if prefix == "trace":
                continue
            if metric == "cli.stdout_bytes":
                out[metric] = stdout_bytes
            elif metric == "series.build.calls":
                out[metric] = self.calls["build"]
            elif field == "repeat_frac":
                group = "build" if prefix == "series.build" else "enumerate"
                calls = self.calls[group]
                out[metric] = self.repeats[group] / calls if calls else 0.0
            else:
                stat = self._stat(prefix)
                out[metric] = {
                    "calls": stat.calls,
                    "total_s": stat.total * time_scale,
                    "self_s": stat.self * time_scale,
                    "coeff_ops": stat.ops,
                    "listed": stat.ops,
                }[field]
        return out
