"""One workload run, in a fresh process (started by ``run.py``).

Set-up is timed from after interpreter start-up and module import until
every dialect the workload uses has answered its first request, on a fresh
registry with an empty artifact directory.  Inputs are then generated and
``gc.collect()`` runs before the timed window.  The window runs whole
rounds (see ``inputs.py``) until ``--seconds`` have passed; every output
is judged as it arrives, and the oracles that need parse trees run after
the window on every distinct input the window served.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import random
import re
import resource
import shutil
import sys
import tempfile
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

from repro.lexer.scanner import Scanner  # noqa: E402
from repro.service import AsyncParseService, ParserRegistry, ParseService  # noqa: E402
from repro.sql import build_ast  # noqa: E402
from repro.sql.dialects import dialect_features  # noqa: E402
from repro.sql.product_line import build_sql_product_line  # noqa: E402

import inputs  # noqa: E402
from inputs import ASYNC, DEEP, GAP, MALFORMED, PRESETS, TRANSLATE, VALID  # noqa: E402
from tracing import Tracer  # noqa: E402

_now = time.perf_counter
WORKERS = 2
HINT = re.compile(r"enable feature '([^']+)'")
#: diagnostics that make an operation fail whatever it expected
FAILING_CODES = {"E0000": "internal error", "E0203": "timed out", "E0204": "shed"}
#: accepted inputs per workload whose tree is also parsed by the
#: interpreter backend, the differential suite's reference
INTERPRETER_SAMPLE = 30


def _first_error(result):
    for diagnostic in result.diagnostics:
        if diagnostic.is_error:
            return diagnostic
    return None


def _hinted(result) -> set[str]:
    return {name for d in result.diagnostics for hint in d.hints
            for name in HINT.findall(hint)}


def _failing(result) -> str | None:
    for diagnostic in result.diagnostics:
        if diagnostic.code in FAILING_CODES:
            return FAILING_CODES[diagnostic.code]
    return None


def _direct(fn, *args):
    return fn(*args)


def _call(tracer):
    """How a round calls the program: directly, or inside an ``op`` span."""
    return _direct if tracer is None else tracer.op


class Workload:
    """Shared bookkeeping: flat arrays and counters, no per-op objects."""

    #: the latency percentile reported as ``latency_tail_ms``
    tail = 0.95

    def __init__(self, artifact_dir: Path) -> None:
        self.artifact_dir = artifact_dir
        self.latency = array("d")
        self.attempted = 0
        self.failed = 0
        self.translations = 0
        self.reasons: dict[str, int] = {}
        self.problems: list[str] = []  # oracle violations: correct = false
        self.features = {d: dialect_features(d) for d in PRESETS}
        self.service: ParseService | None = None
        self._scanners: dict[tuple, Scanner] = {}

    def fail(self, reason: str | None, count: int = 1) -> None:
        if reason is not None:
            self.failed += count
            self.reasons[reason] = self.reasons.get(reason, 0) + count

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        else:
            self.problems[-1] = "... more oracle violations"

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    # -- oracles run after the window ------------------------------------------

    def check_trees(self, items: list[tuple[tuple, str]], seed: int) -> None:
        """Token-stream and interpreter oracles over accepted inputs.

        ``items`` are ``(features, text)`` pairs the window accepted.  Every
        tree's tokens must equal the reference scanner's stream for its
        text; a seeded sample must give the same s-expression under the
        interpreter backend.
        """
        interpreter = ParseService(registry=self.service.registry,
                                   backend="interpreter", max_workers=1)
        sample = set(random.Random(f"{seed}|sample").sample(
            range(len(items)), min(INTERPRETER_SAMPLE, len(items))))
        try:
            for index, (features, text) in enumerate(items):
                result = self.service.parse(text, features)
                if not result.ok:
                    self.problem(f"accepted in the window, rejected after: {text!r}")
                    continue
                got = [(t.type, t.text, t.offset) for t in result.tree.tokens()]
                if got != self.reference_tokens(features, text):
                    self.problem(f"tree tokens differ from the scanner's: {text!r}")
                if index in sample:
                    reference = interpreter.parse(text, features)
                    if (not reference.ok
                            or reference.tree.to_sexpr() != result.tree.to_sexpr()):
                        self.problem(f"interpreter tree differs: {text!r}")
        finally:
            interpreter.close()

    def reference_tokens(self, features, text: str) -> list[tuple]:
        key = tuple(features)
        scanner = self._scanners.get(key)
        if scanner is None:
            grammar = self.service.registry.get(features).product.grammar
            scanner = self._scanners[key] = Scanner(grammar.tokens)
        return [(t.type, t.text, t.offset) for t in scanner.scan(text) if not t.is_eof]


# -- interactive ---------------------------------------------------------------


class Interactive(Workload):
    """One closed-loop client: parse and translate over the presets, sync
    but for two requests a round through the async front end."""

    tail = 0.95

    def setup(self) -> None:
        self.service = ParseService(cache_dir=self.artifact_dir, max_workers=WORKERS)
        self.front = AsyncParseService(self.service)
        self.loop = asyncio.new_event_loop()
        for dialect in PRESETS:
            self.service.parse(inputs.first_request(dialect), self.features[dialect])
        for dialect in inputs.ASYNC_PRESETS:
            self.loop.run_until_complete(self.front.parse(
                inputs.first_request(dialect), self.features[dialect]))
        for source, target in inputs.TRANSLATIONS:
            self.service.translate(inputs.first_request(source), source, target)

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.rounds = inputs.interactive_rounds(seed)
        registry = self.service.registry
        self.selection = {d: registry.fingerprint(self.features[d]).selection
                          for d in PRESETS}

    def run_round(self, index: int, tracer) -> None:
        call = _call(tracer)
        service, features, latency = self.service, self.features, self.latency
        for op in self.rounds[index % len(self.rounds)]:
            kind, dialect, text, target, column = op
            start = _now()
            if kind == TRANSLATE:
                result = call(service.translate, text, dialect, target)
            elif tracer is None and kind == ASYNC:
                result = self.loop.run_until_complete(
                    self.front.parse(text, features[dialect]))
            elif kind == ASYNC:
                result = self.loop.run_until_complete(
                    tracer.async_op(self.front.parse, text, features[dialect]))
            else:
                result = call(service.parse, text, features[dialect])
            latency.append(_now() - start)
            self.attempted += 1
            if kind == TRANSLATE:
                self.translations += 1
            self.fail(self.judge(op, result))

    def judge(self, op, result) -> str | None:
        kind, dialect, text, target, column = op
        failing = _failing(result)
        if failing is not None:
            return failing
        if kind in (VALID, ASYNC, DEEP):
            if result.ok and result.tree is not None:
                return None
            error = _first_error(result)
            code = error.code if error is not None else "?"
            return f"{'deep' if kind == DEEP else 'valid'} query rejected ({code})"
        if kind == TRANSLATE:
            if result.ok:
                return None
            hinted = _hinted(result)
            if (_first_error(result).code != "E0401" or not hinted
                    or hinted & self.selection[target]
                    or not hinted <= self.selection[dialect]):
                return "translation refused wrongly"
            return None
        error = _first_error(result)
        if result.ok or error is None or error.code != "E0201" or error.span is None:
            return f"{inputs.KIND_NAMES[kind]} input not rejected"
        if kind == MALFORMED and (error.span.line, error.span.column) != (1, column):
            return "malformed: first error not at the appended token"
        if kind == GAP:
            if error.span.line != 1 or error.span.column < column:
                return "feature gap: first error before the construct"
            if _hinted(result) & self.selection[dialect]:
                return "feature gap: hint names a selected feature"
        return None

    def check(self, rounds_run: int) -> None:
        accepted, translations = [], []
        for ops in self.rounds[:rounds_run]:
            for kind, dialect, text, target, _ in ops:
                if kind in (VALID, ASYNC):
                    accepted.append((self.features[dialect], text))
                elif kind == TRANSLATE:
                    translations.append((dialect, text, target))
        self.check_trees(accepted, self.seed)
        for source, text, target in translations:
            self.check_translation(source, text, target)

    def check_translation(self, source: str, text: str, target: str) -> None:
        """The translation, re-parsed in the target dialect, builds the same
        AST as its source; with rewrites listed, the round trip back to the
        source dialect must."""
        result = self.service.translate(text, source, target)
        if not result.ok:
            return  # refusals were judged in the window
        original = build_ast(self.service.parse(text, self.features[source]).tree)
        reparsed = self.service.parse(result.sql, self.features[target])
        if not reparsed.ok:
            self.problem(f"translation rejected by its target: {result.sql!r}")
            return
        if result.rewrites:
            back = self.service.translate(result.sql, target, source)
            reparsed = self.service.parse(back.sql or "", self.features[source])
            if not reparsed.ok:
                self.problem(f"round trip rejected: {text!r}")
                return
        if build_ast(reparsed.tree) != original:
            self.problem(f"translation changes the AST: {text!r} -> {result.sql!r}")

    def close(self) -> None:
        self.loop.run_until_complete(self.front.close())
        self.loop.close()
        super().close()


# -- bulk ----------------------------------------------------------------------


class Bulk(Workload):
    """``parse_many`` batches of ``full`` queries over two pool threads."""

    tail = 0.90

    def setup(self) -> None:
        # admission control counts every text of a batch as in flight; the
        # default bound (256) would shed part of the 512-text batches
        self.service = ParseService(cache_dir=self.artifact_dir, max_workers=WORKERS,
                                    max_queue=2 * max(inputs.BATCH_SIZES))
        query = inputs.first_request("full")
        # two texts, so the thread pool starts during set-up too
        self.service.parse_many([query, query], self.features["full"])

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.rounds = inputs.bulk_rounds(seed)

    def run_round(self, index: int, tracer) -> None:
        call = _call(tracer)
        service, features, latency = self.service, self.features["full"], self.latency
        for batch in self.rounds[index % len(self.rounds)]:
            start = _now()
            results = call(service.parse_many, batch, features)
            latency.append(_now() - start)
            self.attempted += len(batch)
            if len(results) != len(batch):
                self.fail("batch lost results", len(batch))
                continue
            for text, result in zip(batch, results):
                if result.text is not text:
                    self.fail("result out of input order")
                elif not result.ok:
                    self.fail(_failing(result) or "valid query rejected")

    def check(self, rounds_run: int) -> None:
        pool = self.rounds[0]
        texts = [text for batch in pool for text in batch]
        self.check_trees([(self.features["full"], text) for text in texts], self.seed)


# -- tailor --------------------------------------------------------------------


class Tailor(Workload):
    """A stream of tailor-made selections, each made ready cold."""

    tail = 0.90

    def setup(self) -> None:
        self.line = build_sql_product_line()
        registry = ParserRegistry(self.line, capacity=inputs.TAILOR_CAPACITY,
                                  cache_dir=self.artifact_dir)
        self.service = ParseService(registry=registry, max_workers=WORKERS)
        for base in inputs.TAILOR_BASES:
            self.service.parse(inputs.first_request(base), self.features[base])

    def prepare(self, seed: int, seconds: float) -> None:
        self.seed = seed
        # a selection takes well over 25 ms; more rounds than can run
        self.rounds = inputs.tailor_rounds(self.line, seed, int(seconds * 4) + 4)
        self.served: list[tuple] = []

    def run_round(self, index: int, tracer) -> None:
        if index >= len(self.rounds):
            raise RuntimeError("tailor stream exhausted: raise the round count")
        call = _call(tracer)
        service, latency = self.service, self.latency
        for slot, base, features, queries in self.rounds[index]:
            start = _now()
            results = call(self.make_ready, service, features, queries)
            latency.append(_now() - start)
            self.attempted += 1
            reason = self.judge(results)
            self.fail(reason)
            if reason is None and slot == "F" and results[0].ok and len(self.served) < 3:
                self.served.append((features, queries))

    @staticmethod
    def make_ready(service, features, queries):
        return [service.parse(text, features) for text in queries]

    def judge(self, results) -> str | None:
        for result in results:
            failing = _failing(result)
            if failing is not None:
                return failing
        first = _first_error(results[0])
        if results[0].fingerprint is None and first is not None:
            return None  # refused at acquisition with its own diagnostic
        if all(result.ok for result in results):
            return None
        return "tailored selection rejects a query of its base preset"

    def check(self, rounds_run: int) -> None:
        items = [(features, text) for features, queries in self.served
                 for text in queries]
        self.check_trees(items, self.seed)


# -- serve ---------------------------------------------------------------------


class Serve(Workload):
    """Two closed-loop clients awaiting ``AsyncParseService.parse``."""

    tail = 0.95

    def setup(self) -> None:
        self.service = ParseService(cache_dir=self.artifact_dir, max_workers=WORKERS)
        self.front = AsyncParseService(self.service)
        self.loop = asyncio.new_event_loop()
        for dialect in PRESETS:
            self.loop.run_until_complete(self.front.parse(
                inputs.first_request(dialect), self.features[dialect]))

    def prepare(self, seed: int) -> None:
        self.seed = seed
        self.rounds = inputs.serve_rounds(seed)
        hot = {request for a, b in self.rounds for request in a if request in b}
        # what a coalesced result must equal: a fresh sync parse
        self.expected = {text: self.service.parse(text, self.features[d]).tree.to_sexpr()
                         for d, text in hot}
        self.last: dict[str, object] = {}

    def run_round(self, index: int, tracer) -> None:
        a, b = self.rounds[index % len(self.rounds)]
        self.loop.run_until_complete(self._round(a, b, tracer))

    async def _round(self, a, b, tracer) -> None:
        # a hot query goes out from both clients at once, so it is in flight
        # twice and always coalesces; other requests take turns, which keeps
        # two parses from contending for the GIL on every step
        for request_a, request_b in zip(a, b):
            if request_a == request_b:
                await asyncio.gather(self._request(request_a, tracer),
                                     self._request(request_b, tracer))
            else:
                await self._request(request_a, tracer)
                await self._request(request_b, tracer)

    async def _request(self, request, tracer) -> None:
        dialect, text = request
        start = _now()
        if tracer is None:
            result = await self.front.parse(text, self.features[dialect])
        else:
            result = await tracer.async_op(self.front.parse, text,
                                           self.features[dialect])
        self.latency.append(_now() - start)
        self.attempted += 1
        self.fail(self.judge(text, result))

    def judge(self, text: str, result) -> str | None:
        failing = _failing(result)
        if failing is not None:
            return failing
        if not result.ok:
            return "valid request rejected"
        if text in self.expected:
            if result is self.last.get(text):  # the second awaiter of one parse
                if result.tree.to_sexpr() != self.expected[text]:
                    return "coalesced result differs from a sync parse"
            self.last[text] = result
        return None

    def check(self, rounds_run: int) -> None:
        seen, items = set(), []
        for a, b in self.rounds[:rounds_run]:
            for dialect, text in a + b:
                if text not in seen:
                    seen.add(text)
                    items.append((self.features[dialect], text))
        self.check_trees(items, self.seed)

    def close(self) -> None:
        self.loop.run_until_complete(self.front.close())
        self.loop.close()
        super().close()


WORKLOADS = {"interactive": Interactive, "bulk": Bulk, "tailor": Tailor,
             "serve": Serve}


# -- the run -------------------------------------------------------------------


def _window(workload: Workload, seconds: float):
    """Whole rounds until ``seconds`` have passed: (elapsed, rounds run)."""
    start = _now()
    rounds = 0
    while True:
        workload.run_round(rounds, None)
        rounds += 1
        elapsed = _now() - start
        if elapsed >= seconds:
            return elapsed, rounds


def _quantile(ordered, q: float) -> float:
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    artifact_dir = Path(tempfile.mkdtemp(prefix="artifacts-", dir=OUT))
    workload = WORKLOADS[args.workload](artifact_dir)
    try:
        start = _now()
        workload.setup()
        setup_s = _now() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.workload == "tailor":
            workload.prepare(args.seed, args.seconds)
        else:
            workload.prepare(args.seed)
        gc.collect()
        if args.trace:
            result = _traced_run(workload, args)
        else:
            result = _timed_run(workload, args, setup_s)
    finally:
        workload.close()
        shutil.rmtree(artifact_dir, ignore_errors=True)
    if workload.reasons:
        print(f"failed operations by reason: {workload.reasons}", file=sys.stderr)
    for message in workload.problems:
        print(f"oracle: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def _timed_run(workload: Workload, args, setup_s: float) -> dict:
    elapsed, rounds = _window(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ordered = sorted(workload.latency)
    beyond = len(ordered) * (1 - workload.tail)
    if beyond < 10:
        print(f"warning: only {beyond:.0f} samples beyond p{workload.tail * 100:g}",
              file=sys.stderr)
    workload.check(rounds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops": (workload.attempted / elapsed, "ops/s"),
        "latency_p50_ms": (1e3 * _quantile(ordered, 0.5), "ms"),
        "latency_tail_ms": (1e3 * _quantile(ordered, workload.tail), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _traced_run(workload: Workload, args) -> dict:
    """Rounds alternate untraced and traced, so both see the same mix;
    the traced ones give the per-layer metrics, the pair the overhead."""
    tracer = Tracer(workload.artifact_dir)
    seconds = {False: 0.0, True: 0.0}
    ops = {False: 0, True: 0}
    op_seconds, translations = 0.0, 0
    deltas: dict[str, int] = {}
    window_start = _now()
    index = 0
    while index < 2 or _now() - window_start < args.seconds:
        traced = index % 2 == 1
        before = (workload.attempted, len(workload.latency), workload.translations)
        if traced:
            counters = workload.service.metrics.snapshot()["counters"]
            tracer.install()
        start = _now()
        try:
            workload.run_round(index, tracer if traced else None)
        finally:
            elapsed = _now() - start
            if traced:
                tracer.uninstall()
        seconds[traced] += elapsed
        ops[traced] += workload.attempted - before[0]
        if traced:
            op_seconds += sum(workload.latency[before[1]:])
            translations += workload.translations - before[2]
            after = workload.service.metrics.snapshot()["counters"]
            for name, value in after.items():
                deltas[name] = deltas.get(name, 0) + value - counters[name]
        index += 1
    overhead = (seconds[True] / ops[True]) / (seconds[False] / ops[False]) - 1.0
    metrics = tracer.metrics(ops[True], op_seconds, translations, deltas, overhead)
    with open(OUT / f"spans-{args.workload}-{args.seed}.bin", "wb") as handle:
        tracer.records.tofile(handle)
    workload.check(index)
    return {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
