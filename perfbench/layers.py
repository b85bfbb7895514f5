"""Per-layer tracing from outside the program.

The traced run replays a workload's commands in this process through
`rascent.cli.main(argv)`.  Before each command every `lru_cache` of the
package is cleared, so each command starts as cold as a fresh
interpreter.  While tracing, the public functions of each module are
wrapped from outside; nothing under src/ changes.  Modules import names
directly, so each function is replaced in every module that holds it
(`rascent.verify.add_entry` as well as `rascent.maps.add_entry`).

Coarse boundaries record spans (name, label, start, end, parent): each
command, each verify suite, and each call to `count_avoiders`,
`search_family` or `expand_gf`.  Hot calls (the pattern veto, the leaf,
`format_word`, `PowerSeries.__mul__`, ...) only bump aggregate counters
and timers.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import io
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field

perf = time.perf_counter

# The memo caches a fresh interpreter starts without.
LRU_CACHES = (
    ("words", "count_family"), ("words", "family_members"),
    ("patterns", "count_avoiders"), ("oracle", "fishburn"), ("oracle", "expand_gf"),
    ("oracle", "catalan_numbers"), ("oracle", "bell_numbers"),
)
# Functions wrapped with an aggregate counter and timer: module, name, group.
# Calls inside an outer call of the same group do not add to its wall share.
TIMED = (
    ("patterns", "avoider_words", None), ("patterns", "contains", None),
    ("words", "enumerate_family", None), ("words", "format_word", None),
    ("maps", "revise", None), ("maps", "unrevise", None), ("maps", "add_entry", None),
    ("maps", "remove_entry", None), ("maps", "shift_trim", None),
    ("gentree", "label_counts", None), ("gentree", "expand_level", None),
    ("gentree", "word_label", None),
    ("oracle", "fishburn", "oracle"), ("oracle", "closed_form", "oracle"),
)
SERIES_METHODS = (("__mul__", "mul"), ("__rmul__", "mul"), ("__truediv__", "truediv"), ("sqrt", "sqrt"))


class _Discard(io.RawIOBase):
    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        return len(b)


class Sink:
    """Stands in for sys.stdout: a buffered text stream like the real one,
    whose bytes are also kept for the output check."""

    def __init__(self) -> None:
        self._text = io.TextIOWrapper(io.BufferedWriter(_Discard()), encoding="utf-8")
        self.chunks: list[str] = []
        self.write_s = 0.0

    def write(self, s: str) -> int:
        t0 = perf()
        n = self._text.write(s)
        self.write_s += perf() - t0
        self.chunks.append(s)
        return n

    def flush(self) -> None:
        self._text.flush()

    def getvalue(self) -> bytes:
        self._text.flush()
        return "".join(self.chunks).encode()


class Span:
    __slots__ = ("name", "label", "start", "end", "parent", "extra")

    def __init__(self, name: str, label: str, parent: int) -> None:
        self.name, self.label, self.parent = name, label, parent
        self.start, self.end, self.extra = perf(), 0.0, None

    def as_dict(self) -> dict:
        return {"name": self.name, "label": self.label, "start": self.start,
                "end": self.end, "parent": self.parent, "extra": self.extra}


def _pattern_label(pattern) -> str:
    return "".join(str(v) for v in pattern)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Installs the wrappers, and holds every span, counter and timer."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.group_s: defaultdict = defaultdict(float)
        self._open: list[int] = []
        self._depth: Counter = Counter()
        self._patterns: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def open(self, name: str, label: str = "") -> Span:
        span = Span(name, label, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf()
        self._open.pop()

    # -- wrappers ----------------------------------------------------------

    def _enter_group(self, group):
        if group is None:
            return None
        self._depth[group] += 1
        return perf() if self._depth[group] == 1 else None

    def _leave_group(self, group, t0) -> None:
        if group is not None:
            self._depth[group] -= 1
            if t0 is not None:
                self.group_s[group] += perf() - t0

    def _wrap(self, key: str, fn, group=None, pattern_arg=None, span_arg=None):
        """Count and time every call of fn under key.  With span_arg, also
        open a span labelled by that argument.  pattern_arg names the
        argument that the searches made inside the call are attributed to."""
        calls, secs = self.calls, self.secs

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pattern = pattern_arg and _pattern_label(_arg(args, kwargs, *pattern_arg))
            if pattern:
                self._patterns.append(pattern)
            g0 = self._enter_group(group)
            span = span_arg and self.open(key, pattern or _arg(args, kwargs, *span_arg))
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                secs[key] += perf() - t0
                calls[key] += 1
                if span:
                    self.close(span)
                self._leave_group(group, g0)
                if pattern:
                    self._patterns.pop()
        return wrapper

    def _search_family(self, fn):
        # The leaf and the accept callback are the hot calls: count every
        # leaf, and count and time every pattern veto.
        @functools.wraps(fn)
        def search_family(n, family, leaf, accept=None, *args, **kwargs):
            leaves = vetoes = 0
            veto_s = 0.0

            def counted_leaf(entries):
                nonlocal leaves
                leaves += 1
                leaf(entries)

            timed_accept = None
            if accept is not None:
                def timed_accept(entries, v):
                    nonlocal vetoes, veto_s
                    vetoes += 1
                    t0 = perf()
                    ok = accept(entries, v)
                    veto_s += perf() - t0
                    return ok

            pattern = self._patterns[-1] if accept is not None and self._patterns else None
            span = self.open("words.search_family", family.value)
            try:
                return fn(n, family, counted_leaf, timed_accept, *args, **kwargs)
            finally:
                self.close(span)
                span.extra = {"n": n, "family": family.value, "pattern": pattern, "filtered": accept is not None,
                              "leaves": leaves, "vetoes": vetoes, "veto_s": veto_s}
        return search_family

    def _suite(self, name: str, fn):
        @functools.wraps(fn)
        def suite(n_max):
            span = self.open("verify.suite", name)
            try:
                checks = fn(n_max)
            finally:
                self.close(span)
            span.extra = {"checks": len(checks), "failed": sum(not c.passed for c in checks)}
            return checks
        return suite

    # -- installing --------------------------------------------------------

    def _replace(self, home: str, name: str, make) -> None:
        # make is called at once, so closures over loop variables are safe
        original = getattr(_module(home), name)
        wrapper = make(original)
        for module in [m for k, m in sys.modules.items() if k == "rascent" or k.startswith("rascent.")]:
            if module.__dict__.get(name) is original:
                self._undo.append((module, name, original))
                setattr(module, name, wrapper)

    def install(self) -> None:
        self._replace("words", "search_family", self._search_family)
        pattern = (1, "pattern")
        self._replace("patterns", "count_avoiders", lambda f: self._wrap(
            "patterns.count_avoiders", f, pattern_arg=pattern, span_arg=pattern))
        self._replace("oracle", "expand_gf", lambda f: self._wrap(
            "oracle.expand_gf", f, group="oracle", span_arg=(0, "name")))
        for home, name, group in TIMED:
            p = pattern if name == "avoider_words" else None
            self._replace(home, name, lambda f: self._wrap(f"{home}.{name}", f, group, p))
        series = _module("series").PowerSeries
        for attr, key in SERIES_METHODS:
            original = series.__dict__[attr]
            self._undo.append((series, attr, original))
            setattr(series, attr, self._wrap(f"series.{key}", original, group="series"))
        suites = _module("verify")._SUITES
        for name, fn in list(suites.items()):
            self._undo.append((suites, name, fn))
            suites[name] = self._suite(name, fn)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._undo.clear()


def _module(name: str):
    return importlib.import_module(f"rascent.{name}")


@dataclass
class CommandRun:
    argv: tuple[str, ...]
    code: int
    wall_s: float
    write_s: float
    stdout: bytes


@dataclass
class Replay:
    """Commands replayed in this process, traced when given a tracer."""

    tracer: Tracer | None = None
    commands: list[CommandRun] = field(default_factory=list)
    cache: dict = field(default_factory=lambda: {f"{h}.{n}": [0, 0] for h, n in LRU_CACHES})

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.commands)

    def run(self, argv: tuple[str, ...]) -> None:
        """Run one command through rascent.cli.main with cold caches."""
        # importing cli first loads every module, so each wrapper reaches
        # every importer of its function
        cli = _module("cli")
        caches = {f"{home}.{name}": getattr(_module(home), name) for home, name in LRU_CACHES}
        for fn in caches.values():
            fn.cache_clear()
        if self.tracer is not None:
            self.tracer.install()
        sink, saved = Sink(), sys.stdout
        sys.stdout = sink
        span = self.tracer.open("cli.main", argv[0]) if self.tracer is not None else None
        t0 = perf()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, as in a fresh interpreter
            traceback.print_exc()
            code = 1
        finally:
            wall = perf() - t0
            sys.stdout = saved
            if span is not None:
                self.tracer.close(span)
                self.tracer.uninstall()
        for key, fn in caches.items():
            info = fn.cache_info()
            self.cache[key][0] += info.hits
            self.cache[key][1] += info.misses
        self.commands.append(CommandRun(tuple(argv), code, wall, sink.write_s, sink.getvalue()))


# -- per-layer metrics -------------------------------------------------------

FAMILIES = ("asc", "rasc", "destop", "mod", "desbot")
SUITES = ("eta", "addrom", "gentree", "table1", "phi", "series", "forms", "wilf")


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def exact_counters(run: Replay) -> dict:
    """Counts that must repeat exactly from one traced replay to the next."""
    tracer = run.tracer
    out: dict = {f"calls.{k}": v for k, v in sorted(tracer.calls.items())}
    out.update({f"cache.{k}": tuple(v) for k, v in sorted(run.cache.items())})
    for s in tracer.spans:
        if s.name == "words.search_family":
            e = s.extra
            key = f"search.{e['family']}.{e['pattern']}.{e['n']}"
            leaves, vetoes = out.get(key, (0, 0))
            out[key] = (leaves + e["leaves"], vetoes + e["vetoes"])
        elif s.name == "verify.suite":
            out[f"suite.{s.label}"] = (s.extra["checks"], s.extra["failed"])
    return out


def layer_metrics(plain: Replay, traced: Replay, traced_again: Replay, patterns) -> dict:
    """Every per-layer metric as name -> (value, unit), from one traced
    replay; the overhead ratio compares both traced replays with the
    untraced one."""
    tracer = traced.tracer
    spans = tracer.spans
    own = _self_times(spans)
    wall = traced.wall_s
    calls, secs = tracer.calls, tracer.secs
    m: dict[str, tuple[float, str]] = {}

    def put(unit: str, name: str, value: float) -> None:
        m[name] = (value, unit)

    searches = [(s, own[i] - s.extra["veto_s"]) for i, s in enumerate(spans)
                if s.name == "words.search_family"]
    veto_s = sum(s.extra["veto_s"] for s, _ in searches)
    veto_calls = sum(s.extra["vetoes"] for s, _ in searches)
    for p in patterns:
        mine = [s for s, _ in searches if s.extra["pattern"] == p]
        vetoes = sum(s.extra["vetoes"] for s in mine)
        put("s", f"patterns.count_avoiders_s.{p}", sum(
            s.end - s.start for s in spans if s.name == "patterns.count_avoiders" and s.label == p))
        put("count", f"patterns.veto_calls.{p}", vetoes)
        put("ratio", f"patterns.veto_yield.{p}", _ratio(sum(s.extra["leaves"] for s in mine), vetoes))
    put("s", "patterns.veto_s", veto_s)
    put("ratio", "patterns.veto_share", _ratio(veto_s, wall))
    put("us", "patterns.us_per_veto", _ratio(veto_s * 1e6, veto_calls))
    put("s", "patterns.avoider_words_s", secs["patterns.avoider_words"])
    put("count", "patterns.contains_calls", calls["patterns.contains"])
    put("s", "patterns.contains_s", secs["patterns.contains"])
    put("ratio", "patterns.count_avoiders.hit_ratio", _hit_ratio(traced, "patterns.count_avoiders"))

    put("s", "words.search_family_s", sum(t for _, t in searches))
    put("count", "words.leaves", sum(s.extra["leaves"] for s, _ in searches))
    for f in FAMILIES:
        mine = [(s, t) for s, t in searches if s.extra["family"] == f]
        put("us", f"words.us_per_leaf.{f}", _ratio(sum(t for _, t in mine) * 1e6,
                                                   sum(s.extra["leaves"] for s, _ in mine)))
    put("s", "words.enumerate_family_s", secs["words.enumerate_family"])
    put("count", "words.format_word_calls", calls["words.format_word"])
    put("s", "words.format_word_s", secs["words.format_word"])
    put("ratio", "words.family_members.hit_ratio", _hit_ratio(traced, "words.family_members"))
    put("ratio", "words.count_family.hit_ratio", _hit_ratio(traced, "words.count_family"))

    put("count", "cli.commands", len(traced.commands))
    put("bytes", "cli.stdout_bytes", sum(len(c.stdout) for c in traced.commands))
    put("s", "cli.write_s", sum(c.write_s for c in traced.commands))
    put("s", "cli.main_s", sum(t for s, t in zip(spans, own) if s.name == "cli.main"))

    put("count", "maps.revise_calls", calls["maps.revise"])
    put("s", "maps.revise_s", secs["maps.revise"])
    put("s", "maps.unrevise_s", secs["maps.unrevise"])
    put("count", "maps.add_entry_calls", calls["maps.add_entry"])
    put("s", "maps.add_entry_s", secs["maps.add_entry"])
    put("s", "maps.remove_entry_s", secs["maps.remove_entry"])
    put("s", "maps.shift_trim_s", secs["maps.shift_trim"])

    put("s", "gentree.label_counts_s", secs["gentree.label_counts"])
    put("s", "gentree.expand_level_s", secs["gentree.expand_level"])
    put("count", "gentree.word_label_calls", calls["gentree.word_label"])
    put("s", "gentree.word_label_s", secs["gentree.word_label"])

    put("count", "series.sqrt_calls", calls["series.sqrt"])
    put("s", "series.sqrt_s", secs["series.sqrt"])
    put("s", "series.mul_s", secs["series.mul"])
    put("s", "series.truediv_s", secs["series.truediv"])
    put("ratio", "series.wall_share", _ratio(tracer.group_s["series"], wall))

    put("s", "oracle.expand_gf_s", sum(s.end - s.start for s in spans if s.name == "oracle.expand_gf"))
    put("s", "oracle.fishburn_s", secs["oracle.fishburn"])
    put("s", "oracle.closed_form_s", secs["oracle.closed_form"])
    put("ratio", "oracle.expand_gf.hit_ratio", _hit_ratio(traced, "oracle.expand_gf"))
    put("ratio", "oracle.wall_share", _ratio(tracer.group_s["oracle"], wall))

    suites = [s for s in spans if s.name == "verify.suite"]
    for name in SUITES:
        put("s", f"verify.suite_s.{name}", sum(s.end - s.start for s in suites if s.label == name))
    put("count", "verify.checks", sum(s.extra["checks"] for s in suites))
    put("count", "verify.checks_failed", sum(s.extra["failed"] for s in suites))

    put("ratio", "trace.overhead_ratio",
        _ratio((traced.wall_s + traced_again.wall_s) / 2, plain.wall_s))
    return m


def _hit_ratio(run: Replay, cache: str) -> float:
    hits, misses = run.cache[cache]
    return _ratio(hits, hits + misses)
