"""In-process traced runs: spans around the calls into each gapwords layer.

The tracer replaces the public functions of ``gapwords.cli``, ``counting``,
``intervals`` and ``latin``, and the active path-count kernel, with wrappers
that record a span per call: name, start, end, parent span and op id. The
library itself is not changed; the originals are put back when tracing ends.
Spans stay in memory and are written out when the run ends.

Work counts (kernel updates, recurrence additions, cell strings) are derived
from each call's arguments and result after the op's spans have closed, so
computing them adds no time to any span.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from collections import Counter, defaultdict

from gapwords import cli, counting, intervals, latin

# (module, attribute, span name). The layer is the part before the dot.
TRACED = (
    (cli, "main", "cli.main"),
    (cli, "parse_gap_spec", "cli.parse_gap_spec"),
    (counting, "complexity", "counting.complexity"),
    (counting, "gap_adjacency", "counting.gap_adjacency"),
    (counting, "path_counts", "counting.path_counts"),
    (counting, "_path_count_kernel", "kernel.path_count_kernel"),
    (intervals, "gap_range_complexity", "intervals.gap_range_complexity"),
    (intervals, "tail_count_series", "intervals.tail_count_series"),
    (intervals, "complexity_series", "intervals.complexity_series"),
    (latin, "initial_latin_matrix", "latin.initial_latin_matrix"),
    (latin, "warshall_latin", "latin.warshall_latin"),
    (latin, "nontrivial_subwords", "latin.nontrivial_subwords"),
)

LAYERS = ("cli", "counting", "kernel", "intervals", "latin")

# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move). Times are medians over the ops that call the
# layer, 0 when no op of the workload does; counts are totals over one round
# of the workload's cases.
PER_LAYER = {
    "cli.parse_gap_spec_s": ("s", "lower", "op_s.p50 on count-gaps (1-n-1 builds the full list)"),
    "cli.main_s": ("s", "lower", "op_s.* on every workload"),
    "cli.render_s": ("s", "lower", "op_s.* on intervals-bigint and enumerate-words"),
    "cli.stdout_bytes": ("bytes", "lower", "op_s.* on intervals-bigint and enumerate-words"),
    "counting.complexity_s": ("s", "lower", "ops_per_s and op_s.p50 on count-gaps"),
    "counting.gap_adjacency_s": ("s", "lower", "ops_per_s and op_s.p50 on count-gaps"),
    "counting.path_counts_s": ("s", "lower", "ops_per_s and op_s.p50 on count-gaps"),
    "counting.validate_s": ("s", "lower", "ops_per_s and op_s.p50 on count-gaps"),
    "counting.reduce_s": ("s", "lower", "ops_per_s and op_s.p50 on count-gaps"),
    "counting.adjacency_density": ("ratio", "higher", "ops_per_s on count-gaps"),
    "kernel.path_count_kernel_s": ("s", "lower", "op_s.* on count-gaps"),
    "kernel.updates": ("count", "lower", "op_s.* on count-gaps"),
    "kernel.result_bits": ("bits", "lower", "op_s.* on count-gaps (above 63 the compiled kernel falls back)"),
    "intervals.gap_range_complexity_s": ("s", "lower", "ops_per_s and op_s.tail on intervals-bigint"),
    "intervals.tail_count_series_s": ("s", "lower", "ops_per_s and op_s.tail on intervals-bigint"),
    "intervals.complexity_series_s": ("s", "lower", "ops_per_s and op_s.tail on intervals-bigint"),
    "intervals.additions": ("count", "lower", "ops_per_s and op_s.tail on intervals-bigint"),
    "intervals.result_bits": ("bits", "lower", "op_s.* on intervals-bigint (decimal rendering)"),
    "latin.initial_latin_matrix_s": ("s", "lower", "op_s.* and peak_rss_mb on enumerate-words"),
    "latin.warshall_latin_s": ("s", "lower", "op_s.* and peak_rss_mb on enumerate-words"),
    "latin.nontrivial_subwords_s": ("s", "lower", "op_s.* and peak_rss_mb on enumerate-words"),
    "latin.collect_s": ("s", "lower", "op_s.* and peak_rss_mb on enumerate-words"),
    "latin.cell_strings": ("count", "lower", "peak_rss_mb and op_s.* on enumerate-words"),
    "latin.distinct_ratio": ("ratio", "higher", "peak_rss_mb on enumerate-words"),
    "cli.errors": ("count", "lower", "failed ops on every workload"),
    "counting.errors": ("count", "lower", "failed ops on count-gaps"),
    "kernel.errors": ("count", "lower", "failed ops on count-gaps"),
    "intervals.errors": ("count", "lower", "failed ops on intervals-bigint"),
    "latin.errors": ("count", "lower", "failed ops on enumerate-words"),
    "op.span_s": ("s", "lower", "op_s.* on every workload"),
    "op.gap_s": ("s", "lower", "setup_s: process start, import and tracing overhead"),
}


class _CountingSink:
    """Stands in for stdout: counts the characters written (all ASCII here)."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


class Tracer:
    """Spans and work counts for in-process ``cli.main`` calls."""

    def __init__(self) -> None:
        self.clock0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op = -1
        self._pending: list[tuple[str, tuple, object]] = []
        self._raised: list[BaseException] = []
        self._errors: Counter = Counter()

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced functions in for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        try:
            for mod, attr, name in TRACED:
                setattr(mod, attr, self._wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _open(self, name: str) -> dict:
        span = {
            "op": self._op,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self.clock0,
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self.clock0
        self._stack.pop()

    def _wrap(self, name: str, fn):
        layer = name.partition(".")[0]

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                # Count an exception once, in the layer that raised it.
                if not any(err is seen for seen in self._raised):
                    self._raised.append(err)
                    self._errors[layer] += 1
                raise
            finally:
                self._close(span)
            if name in WORK_COUNTS:
                self._pending.append((name, args, result))
            return result

        return traced

    def run_op(self, op: int, argv: list[str]) -> tuple[int, int, Counter]:
        """Run ``cli.main(argv)`` under an ``op`` span with stdout sent to a sink.

        The int-to-str digit limit is set to the interpreter default for the
        call, as in a fresh CLI process. Returns the exit code (1 for an
        uncaught exception), the bytes printed and the op's work and error
        counts.
        """
        self._op = op
        self._pending, self._raised = [], []
        self._errors = Counter()
        sink = _CountingSink()
        saved_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        span = self._open("op")
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except SystemExit as err:
            code = err.code if isinstance(err.code, int) else 1
        except Exception:
            code = 1
        finally:
            self._close(span)
            sys.set_int_max_str_digits(saved_limit)
        counts = Counter({f"{layer}_errors": k for layer, k in self._errors.items()})
        for name, args, result in self._pending:
            WORK_COUNTS[name](counts, args, result)
        self._pending = []
        return code, sink.chars, counts


def _adjacency(counts: Counter, args: tuple, result) -> None:
    n = len(result)
    counts["adjacency_edges"] += sum(map(sum, result))
    counts["adjacency_cells"] += n * n


def _kernel(counts: Counter, args: tuple, result) -> None:
    # w[i][j] += w[i][k] * w[k][j] runs for every i < k with W[i][k] != 0 and
    # every j > k with A[k][j] == 1: column k of W is final when step k runs,
    # and row k still holds the adjacency.
    (a,) = args
    n = len(a)
    counts["kernel_updates"] += sum(
        sum(1 for i in range(k) if result[i][k]) * sum(a[k][k + 1 :]) for k in range(n)
    )
    bits = max((v.bit_length() for row in result for v in row), default=0)
    counts["kernel_bits"] = max(counts["kernel_bits"], bits)


def _gap_range(counts: Counter, args: tuple, result) -> None:
    n, d1, d2 = args
    counts["intervals_additions"] += sum(max(0, min(d2, i - 1) - d1 + 1) for i in range(1, n + 1))
    counts["intervals_bits"] = max(counts["intervals_bits"], result.bit_length())


def _tail_series(counts: Counter, args: tuple, result) -> None:
    d1, d2, count = args
    # Nonzero denominator terms of z^(d2+1) - z^d1 - z + 1 past the constant.
    terms = {1, d1, d2 + 1}
    counts["intervals_additions"] += sum(
        sum(1 for j in terms if j <= min(i, d2 + 1)) for i in range(1, count + 1)
    )
    counts["intervals_bits"] = max(counts["intervals_bits"], max(v.bit_length() for v in result))


def _complexity_series(counts: Counter, args: tuple, result) -> None:
    counts["intervals_additions"] += args[2]  # running sums over the tail series
    counts["intervals_bits"] = max(counts["intervals_bits"], max(v.bit_length() for v in result))


def _warshall(counts: Counter, args: tuple, result) -> None:
    counts["latin_cell_strings"] += sum(len(cell) for row in result for cell in row)
    counts["latin_distinct"] += len(set().union(*(cell for row in result for cell in row)))


WORK_COUNTS = {
    "counting.gap_adjacency": _adjacency,
    "kernel.path_count_kernel": _kernel,
    "intervals.gap_range_complexity": _gap_range,
    "intervals.tail_count_series": _tail_series,
    "intervals.complexity_series": _complexity_series,
    "latin.warshall_latin": _warshall,
}


def op_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per op: inclusive time by span name, plus ``cli.render_s`` (self time of cli.main)."""
    by_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        t = by_op[s["op"]]
        t[s["name"]] += s["end"] - s["start"]
        if s["name"] == "cli.main":
            t["cli.render"] += s["end"] - s["start"] - child_time[s["id"]]
    return by_op


def self_time_by_layer(spans: list[dict]) -> dict[str, float]:
    """Total self time (span minus its children) per layer, over all spans."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].partition(".")[0]] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(out)


def layer_metrics(ops: list[dict], spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric from the traced ops of one run.

    ``ops`` holds, per op: ``op`` (id), ``round``, ``counts``, ``bytes`` and
    ``untraced_s`` (wall time of the same case as a CLI subprocess). Counts
    are totals over round 0; the ops of later rounds repeat its cases.
    """
    times = op_times(spans)

    def median_of(fn) -> float:
        values = [v for op in ops if (v := fn(times[op["op"]])) is not None]
        return statistics.median(values) if values else 0.0

    def span(name: str):
        return lambda t: t[name] if name in t else None

    def diff(name: str, *minus: str):
        return lambda t: t[name] - sum(t[m] for m in minus) if name in t else None

    first = [op for op in ops if op["round"] == 0]
    total: Counter = Counter()
    for op in first:
        for key, value in op["counts"].items():
            # Bit lengths are maxima; everything else adds up.
            total[key] = max(total[key], value) if key.endswith("_bits") else total[key] + value
    m = {
        "cli.parse_gap_spec_s": median_of(span("cli.parse_gap_spec")),
        "cli.main_s": median_of(span("cli.main")),
        "cli.render_s": median_of(span("cli.render")),
        "cli.stdout_bytes": sum(op["bytes"] for op in first),
        "counting.complexity_s": median_of(span("counting.complexity")),
        "counting.gap_adjacency_s": median_of(span("counting.gap_adjacency")),
        "counting.path_counts_s": median_of(span("counting.path_counts")),
        "counting.validate_s": median_of(diff("counting.path_counts", "kernel.path_count_kernel")),
        "counting.reduce_s": median_of(
            diff("counting.complexity", "counting.gap_adjacency", "counting.path_counts")
        ),
        "counting.adjacency_density": (
            total["adjacency_edges"] / total["adjacency_cells"] if total["adjacency_cells"] else 0.0
        ),
        "kernel.path_count_kernel_s": median_of(span("kernel.path_count_kernel")),
        "kernel.updates": total["kernel_updates"],
        "kernel.result_bits": total["kernel_bits"],
        "intervals.gap_range_complexity_s": median_of(span("intervals.gap_range_complexity")),
        "intervals.tail_count_series_s": median_of(span("intervals.tail_count_series")),
        "intervals.complexity_series_s": median_of(span("intervals.complexity_series")),
        "intervals.additions": total["intervals_additions"],
        "intervals.result_bits": total["intervals_bits"],
        "latin.initial_latin_matrix_s": median_of(span("latin.initial_latin_matrix")),
        "latin.warshall_latin_s": median_of(span("latin.warshall_latin")),
        "latin.nontrivial_subwords_s": median_of(span("latin.nontrivial_subwords")),
        "latin.collect_s": median_of(
            diff("latin.nontrivial_subwords", "latin.initial_latin_matrix", "latin.warshall_latin")
        ),
        "latin.cell_strings": total["latin_cell_strings"],
        "latin.distinct_ratio": (
            total["latin_distinct"] / total["latin_cell_strings"] if total["latin_cell_strings"] else 0.0
        ),
        "op.span_s": median_of(span("op")),
        "op.gap_s": statistics.median(op["untraced_s"] - times[op["op"]]["op"] for op in ops),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = total[f"{layer}_errors"]
    return m
