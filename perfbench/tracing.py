"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each layer of ``repro`` (and a
few private seams where a layer has no public boundary) with span
recorders, for the traced half of a ``--trace 1`` run only; nothing in
``src/`` changes.  A span is ``(id, parent, layer, start, end, extra,
thread)``, kept in one flat ``array('d')`` so the benchmark's own
bookkeeping adds no objects for the cyclic GC to scan.  ``extra`` holds the
cross-thread wait of a hop span, the token count of a scan, or 1 for a
rejecting parse; ``thread`` numbers the threads hop spans ran on.  Garbage
collections are spans too (layer ``gc``), children of the span they paused.

Spans nest through a context variable.  A call that crosses to another
thread (``pool.submit(self._parse_entry, ...)``, the async front end's
``run_in_executor(partial(service.parse, ...))``) is caught at attribute
lookup: the method is looked up on the submitting thread, which is where
the span's parent and the submission time are taken.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import itertools
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter
FIELDS = 7

#: Span layers.  "op" is the benchmark's own span around one operation;
#: its self time is the part of end-to-end time no layer accounts for.
LAYERS = (
    "op", "service", "async", "async.key", "features.resolve", "fingerprint",
    "registry.acquire", "core.compose", "program.compile", "closures.codegen",
    "closures.exec", "artifact.load", "artifact.store", "lexer", "parsing",
    "parse.whole", "parsing.tables", "diagnostics.recover", "diagnostics.hint",
    "diagnostics.hint_build", "ast.build", "transpile.analyze", "transpile.render",
    "gc",
)
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("features.resolve_us", "us"), ("features.calls_per_op", "calls/op"),
    ("fingerprint.us", "us"), ("fingerprint.calls_per_op", "calls/op"),
    ("registry.acquire_self_us", "us"), ("registry.hit_ratio", "ratio"),
    ("registry.evictions", "1/op"),
    ("core.compose_ms", "ms"), ("core.composes", "1/op"),
    ("program.compile_ms", "ms"), ("program.ir_kb", "kB"),
    ("closures.compile_ms", "ms"), ("closures.source_kb", "kB"),
    ("artifact.load_ms", "ms"), ("artifact.store_ms", "ms"),
    ("artifact.disk_hit_ratio", "ratio"),
    ("lexer.scan_us", "us"), ("lexer.tokens_per_query", "tokens"),
    ("parsing.parse_us", "us"), ("parsing.tables_ms", "ms"),
    ("diagnostics.recover_us", "us"), ("diagnostics.hint_us", "us"),
    ("diagnostics.per_reject", "1/reject"), ("diagnostics.hint_build_ms", "ms"),
    ("service.self_us", "us"), ("executor.wait_us", "us"),
    ("async.loop_us", "us"), ("async.dispatch_wait_us", "us"),
    ("async.coalesced_share", "ratio"),
    ("ast.build_us", "us"),
    ("transpile.analyze_us", "us"), ("transpile.render_us", "us"),
    ("transpile.reparse_us", "us"),
    ("gc.ms_per_op", "ms"), ("gc.full_collections", "count"),
    ("unaccounted.share", "ratio"), ("trace.overhead", "ratio"),
)


class Tracer:
    """Installs span recorders on the program's layers; computes metrics."""

    def __init__(self, artifact_dir: Path) -> None:
        self.artifact_dir = Path(artifact_dir)
        self.records = array("d")
        self._record = self.records.extend  # one C call: rows never interleave
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("span", default=0)
        self._undo: list[tuple[object, str, object]] = []
        self.gc_full = 0
        self._gc_start = (0.0, 0)

    # -- span recorders -------------------------------------------------------

    def _span(self, fn, layer: str, extra=None):
        layer_id = LAYER_ID[layer]
        current, ids, record = self._current, self._ids, self._record

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _now()
                current.reset(token)
                record((sid, parent, layer_id, start, end,
                        extra(result) if extra is not None and result is not None
                        else 0.0, 0))

        return traced

    def _async_span(self, fn, layer: str):
        layer_id = LAYER_ID[layer]
        current, ids, record = self._current, self._ids, self._record

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set(sid)
            start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _now()
                current.reset(token)
                record((sid, parent, layer_id, start, end, 0.0, 0))

        return traced

    def _hop(self, fn, layer: str):
        """A method span that may be called on another thread than the one
        that looked it up; ``extra`` is the wait between the two."""
        layer_id = LAYER_ID[layer]
        current, ids, record = self._current, self._ids, self._record
        threads: dict[int, int] = {}

        class Hop:
            def __get__(self, obj, owner=None):
                if obj is None:
                    return fn
                looked_up = _now()
                lookup_parent = current.get()
                lookup_thread = threading.get_ident()

                def call(*args, **kwargs):
                    start = _now()
                    thread = threading.get_ident()
                    if thread == lookup_thread:
                        parent, wait = current.get(), 0.0
                    else:
                        parent, wait = lookup_parent, start - looked_up
                    thread = threads.setdefault(thread, len(threads) + 1)
                    sid = next(ids)
                    token = current.set(sid)
                    try:
                        return fn(obj, *args, **kwargs)
                    finally:
                        end = _now()
                        current.reset(token)
                        record((sid, parent, layer_id, start, end, wait, thread))

                return call

        return Hop()

    def op(self, fn, *args):
        """Run one benchmark operation inside an ``op`` span."""
        sid = next(self._ids)
        token = self._current.set(sid)
        start = _now()
        try:
            return fn(*args)
        finally:
            end = _now()
            self._current.reset(token)
            self._record((sid, 0, 0, start, end, 0.0, 0))

    async def async_op(self, coro_fn, *args):
        sid = next(self._ids)
        token = self._current.set(sid)
        start = _now()
        try:
            return await coro_fn(*args)
        finally:
            end = _now()
            self._current.reset(token)
            self._record((sid, 0, 0, start, end, 0.0, 0))

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, owner.__dict__[name]
                           if isinstance(owner, type) else getattr(owner, name)))
        setattr(owner, name, replacement)

    def _artifact(self, fn, suffix: str):
        """``RegistryEntry.program``/``closure_program``: a span only when the
        entry does not hold the artifact yet; load or store by whether the
        artifact file existed before the call."""
        load = self._span(fn, "artifact.load")
        store = self._span(fn, "artifact.store")
        attr = "_program" if suffix == ".ir.json" else "_closure"
        directory = self.artifact_dir

        @functools.wraps(fn)
        def traced(entry, cache_dir=None, *args, **kwargs):
            if getattr(entry, attr) is not None:
                return fn(entry, cache_dir, *args, **kwargs)
            path = Path(cache_dir or directory) / f"{entry.fingerprint.digest}{suffix}"
            chosen = load if path.exists() else store
            return chosen(entry, cache_dir, *args, **kwargs)

        return traced

    def install(self) -> None:
        import repro.parsing.closures as closures
        import repro.parsing.program as program
        import repro.service.fingerprint as fingerprint
        import repro.service.registry as registry
        import repro.sql as sql
        from repro.core.product_line import ComposedProduct, GrammarProductLine
        from repro.diagnostics.hints import FeatureHinter
        from repro.lexer.scanner import Scanner
        from repro.parsing.parser import Parser
        from repro.service.async_service import AsyncParseService
        from repro.service.service import ParseService
        from repro.transpile.render import SqlRenderer

        # the package re-exports the function under the submodule's name
        translate = importlib.import_module("repro.transpile.translate")
        span, patch = self._span, self._patch

        def token_count(result):
            tokens = result[0] if isinstance(result, tuple) else result
            return float(len(tokens))

        def rejected(outcome):
            return 1.0 if outcome.diagnostics.has_errors else 0.0

        patch(GrammarProductLine, "resolve_configuration",
              span(GrammarProductLine.resolve_configuration, "features.resolve"))
        patch(GrammarProductLine, "compose_product",
              span(GrammarProductLine.compose_product, "core.compose"))
        for module in (registry, fingerprint):
            patch(module, "configuration_fingerprint",
                  span(fingerprint.configuration_fingerprint, "fingerprint"))
        patch(registry.ParserRegistry, "acquire",
              span(registry.ParserRegistry.acquire, "registry.acquire"))
        patch(program, "compile_program",
              span(program.compile_program, "program.compile"))
        patch(closures, "generate_closure_source",
              span(closures.generate_closure_source, "closures.codegen"))
        patch(closures.ClosureProgram, "__init__",
              span(closures.ClosureProgram.__init__, "closures.exec"))
        # analysis, LL table and scanner of an entry, built once per product
        compiled = registry.RegistryEntry._compiled
        tables = span(compiled, "parsing.tables")
        patch(registry.RegistryEntry, "_compiled",
              lambda entry: compiled(entry) if entry._table is not None
              else tables(entry))
        patch(ComposedProduct, "hint_provider",
              span(ComposedProduct.hint_provider, "diagnostics.hint_build"))
        patch(registry.RegistryEntry, "program",
              self._artifact(registry.RegistryEntry.program, ".ir.json"))
        patch(registry.RegistryEntry, "closure_program",
              self._artifact(registry.RegistryEntry.closure_program, ".closures.py"))
        for cls in (Scanner, closures.CompiledScanner):
            for name in ("scan", "scan_with_diagnostics"):
                patch(cls, name, span(cls.__dict__[name], "lexer", token_count))
        patch(Parser, "parse_with_diagnostics",
              span(Parser.parse_with_diagnostics, "parsing", rejected))
        for cls in (Parser, closures.ClosureParser):
            patch(cls, "parse_tokens", span(cls.__dict__["parse_tokens"], "parsing"))
        patch(Parser, "parse", span(Parser.parse, "parse.whole"))
        patch(Parser, "_build_error",
              span(Parser._build_error, "diagnostics.recover"))
        patch(FeatureHinter, "__call__",
              span(FeatureHinter.__call__, "diagnostics.hint"))
        patch(sql, "build_ast", span(sql.build_ast, "ast.build"))
        patch(translate, "analyze", span(translate.analyze, "transpile.analyze"))
        patch(SqlRenderer, "render", span(SqlRenderer.render, "transpile.render"))
        patch(ParseService, "parse", self._hop(ParseService.parse, "service"))
        patch(ParseService, "_parse_entry",
              self._hop(ParseService._parse_entry, "service"))
        for name in ("parse_many", "translate"):
            patch(ParseService, name, span(ParseService.__dict__[name], "service"))
        patch(AsyncParseService, "parse",
              self._async_span(AsyncParseService.parse, "async"))
        patch(AsyncParseService, "_coalesce_key",
              span(AsyncParseService._coalesce_key, "async.key"))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase, info) -> None:
        """A collection is a span of its own, a child of the span that was
        open on the collecting thread: its pause is not charged there."""
        if phase == "start":
            self._gc_start = (_now(), self._current.get())
            return
        start, parent = self._gc_start
        self._record((next(self._ids), parent, LAYER_ID["gc"], start, _now(),
                      0.0, 0))
        if info.get("generation") == 2:
            self.gc_full += 1

    # -- metrics --------------------------------------------------------------

    def metrics(self, ops: int, op_seconds: float, translations: int,
                counters: dict, overhead: float) -> dict:
        """Per-layer metrics for ``ops`` operations traced in the window.

        ``op_seconds`` is the sum of the operations' end-to-end times,
        ``translations`` how many of them were translations, and
        ``counters`` the change of the service's counters over the window.
        """
        rows = self.records
        parent, layer, start, end, extra, thread = {}, {}, {}, {}, {}, {}
        for i in range(0, len(rows), FIELDS):
            sid, par, lay, t0, t1, ex, th = rows[i:i + FIELDS]
            sid = int(sid)
            parent[sid], layer[sid] = int(par), LAYERS[int(lay)]
            start[sid], end[sid], extra[sid], thread[sid] = t0, t1, ex, th

        def root(sid):
            while parent[sid] in parent:
                sid = parent[sid]
            return sid

        by_op = defaultdict(list)
        for sid in parent:
            by_op[root(sid)].append(sid)

        # relabel: the exec of a loaded closure artifact is part of loading
        # it; a translation's second whole-text parse is its reparse
        key = dict(layer)
        for sid in parent:
            if layer[sid] == "closures.exec" and layer.get(parent[sid]) == "artifact.load":
                key[sid] = "artifact.load"
        reparse = []
        for sids in by_op.values():
            whole = sorted((start[s], s) for s in sids if layer[s] == "parse.whole")
            reparse.extend(s for _, s in whole[1:])

        self_time = defaultdict(float)
        for sids in by_op.values():
            _attribute(sids, parent, start, end, key, self_time)

        count = defaultdict(int)
        for sid in parent:
            count[layer[sid]] += 1

        def top(name):
            return [s for s in parent if layer[s] == name and layer.get(parent[s]) != name]

        def ratio(num, den):
            return num / den if den else 0.0

        scans = top("lexer")
        rejects = sum(1 for s in parent if layer[s] == "parsing" and extra[s] == 1.0)
        hops = _hop_waits(parent, layer, start, end, extra, thread)
        async_wait = sum(w for s, w in hops.items() if layer.get(parent[s]) == "async")
        worker_wait = sum(w for s, w in hops.items() if layer.get(parent[s]) != "async")
        disk_hits = counters["ir_disk_hits"] + counters["closure_disk_hits"]
        disk_all = disk_hits + counters["ir_disk_misses"] + counters["closure_disk_misses"]

        us, ms = 1e6, 1e3
        values = {
            "features.resolve_us": us * self_time["features.resolve"] / ops,
            "features.calls_per_op": count["features.resolve"] / ops,
            "fingerprint.us": us * self_time["fingerprint"] / ops,
            "fingerprint.calls_per_op": count["fingerprint"] / ops,
            "registry.acquire_self_us": us * self_time["registry.acquire"] / ops,
            "registry.hit_ratio": ratio(counters["hits"],
                                        counters["hits"] + counters["misses"]),
            "registry.evictions": counters["evictions"] / ops,
            "core.compose_ms": ms * ratio(self_time["core.compose"],
                                          count["core.compose"]),
            "core.composes": count["core.compose"] / ops,
            "program.compile_ms": ms * ratio(self_time["program.compile"],
                                             count["program.compile"]),
            "program.ir_kb": _mean_kb(self.artifact_dir, "*.ir.json"),
            "closures.compile_ms": ms * ratio(
                self_time["closures.codegen"] + self_time["closures.exec"],
                count["closures.codegen"]),
            "closures.source_kb": _mean_kb(self.artifact_dir, "*.closures.py"),
            "artifact.load_ms": ms * ratio(self_time["artifact.load"],
                                           len(top("artifact.load"))),
            "artifact.store_ms": ms * ratio(self_time["artifact.store"],
                                            len(top("artifact.store"))),
            "artifact.disk_hit_ratio": ratio(disk_hits, disk_all),
            "lexer.scan_us": us * self_time["lexer"] / ops,
            # the EOF token is not a token of the query
            "lexer.tokens_per_query": ratio(
                sum(extra[s] for s in scans) - len(scans), len(scans)),
            "parsing.parse_us": us * self_time["parsing"] / ops,
            "parsing.tables_ms": ms * ratio(self_time["parsing.tables"],
                                            count["parsing.tables"]),
            "diagnostics.recover_us": us * ratio(self_time["diagnostics.recover"], rejects),
            "diagnostics.hint_us": us * ratio(self_time["diagnostics.hint"], rejects),
            "diagnostics.per_reject": ratio(count["diagnostics.recover"], rejects),
            "diagnostics.hint_build_ms": ms * ratio(
                self_time["diagnostics.hint_build"], count["diagnostics.hint_build"]),
            "service.self_us": us * self_time["service"] / ops,
            "executor.wait_us": us * worker_wait / ops,
            "async.loop_us": us * sum(end[s] - start[s] for s in parent
                                      if layer[s] == "async.key") / ops,
            "async.dispatch_wait_us": us * async_wait / ops,
            "async.coalesced_share": ratio(counters["coalesced"],
                                           counters["async_parses"]),
            "ast.build_us": us * ratio(self_time["ast.build"], translations),
            "transpile.analyze_us": us * ratio(self_time["transpile.analyze"], translations),
            "transpile.render_us": us * ratio(self_time["transpile.render"], translations),
            "transpile.reparse_us": us * ratio(
                sum(end[s] - start[s] for s in reparse), translations),
            "gc.ms_per_op": ms * self_time["gc"] / ops,
            "gc.full_collections": float(self.gc_full),
            "unaccounted.share": ratio(self_time["op"], op_seconds),
            "trace.overhead": overhead,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def _attribute(sids, parent, start, end, key, self_time) -> None:
    """Add each span's self time, under its key, to ``self_time``.

    A span is charged for the instants at which it is open and none of its
    children is; where leaves of two threads overlap (the two batch
    workers) the instant is split evenly, so the self times of one
    operation add up to the wall time its spans cover.
    """
    events = sorted(
        [(start[s], 1, s) for s in sids] + [(end[s], 0, s) for s in sids]
    )
    open_children: dict[int, int] = {}
    previous = None
    for t, opening, sid in events:
        if previous is not None and t > previous and open_children:
            leaves = [s for s, n in open_children.items() if n == 0]
            share = (t - previous) / len(leaves)
            for s in leaves:
                self_time[key[s]] += share
        p = parent[sid]
        if opening:
            open_children[sid] = 0
            if p in open_children:
                open_children[p] += 1
        else:
            del open_children[sid]
            if p in open_children:
                open_children[p] -= 1
        previous = t


def _hop_waits(parent, layer, start, end, extra, thread) -> dict[int, float]:
    """The hand-off wait of every span that crossed to another thread.

    It runs from the later of the submission and the end of the same
    thread's previous span of the operation until the span starts, so
    queueing behind earlier work of a batch is not counted as a hop.
    """
    hops = sorted((start[s], s) for s in parent
                  if layer[s] == "service" and extra[s] > 0.0)
    free_at: dict[tuple, float] = {}
    waits = {}
    for t0, sid in hops:
        submitted = t0 - extra[sid]
        key = (parent[sid], thread[sid])
        waits[sid] = t0 - max(submitted, free_at.get(key, submitted))
        free_at[key] = end[sid]
    return waits


def _mean_kb(directory: Path, pattern: str) -> float:
    sizes = [p.stat().st_size for p in directory.glob(pattern)]
    return sum(sizes) / len(sizes) / 1024 if sizes else 0.0
