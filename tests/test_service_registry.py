"""ParserRegistry: LRU behavior, disk artifacts, single-flight composition."""

import threading

import pytest

from repro.core import GrammarProductLine
from repro.core.composer import GrammarComposer
from repro.parsing.backends import get_backend
from repro.parsing.codegen import FINGERPRINT_CONSTANT
from repro.service import ParserRegistry
from repro.service.artifacts import (
    CLOSURES,
    IR,
    KINDS,
    LEX,
    ArtifactMiss,
    ArtifactStore,
    render_lexicon,
)

from tests.test_core_product_line import mini_model, mini_units


def make_registry(capacity=8, cache_dir=None):
    line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
    return ParserRegistry(line, capacity=capacity, cache_dir=cache_dir)


@pytest.fixture
def registry():
    return make_registry()


@pytest.fixture
def compose_calls(monkeypatch):
    """Count grammar compositions performed anywhere in the process."""
    calls = []
    original = GrammarComposer.compose

    def counting(self, *args, **kwargs):
        calls.append(threading.get_ident())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GrammarComposer, "compose", counting)
    return calls


class TestLookup:
    def test_miss_then_hit(self, registry):
        first = registry.get(["Query", "Where"])
        assert registry.metrics.counter("misses") == 1
        assert registry.metrics.counter("hits") == 0
        second = registry.get(["Query", "Where"])
        assert second is first
        assert registry.metrics.counter("hits") == 1
        assert registry.metrics.counter("composes") == 1

    def test_sparse_and_expanded_share_an_entry(self, registry):
        sparse = registry.get(["Query", "GroupBy"])
        config = registry.line.resolve_configuration(["Query", "GroupBy"])
        expanded = registry.get(config.selected, dict(config.counts))
        assert expanded is sparse
        assert registry.metrics.counter("composes") == 1

    def test_acquire_reports_warmth(self, registry):
        _, warm = registry.acquire(["Query"])
        assert warm is False
        _, warm = registry.acquire(["Query"])
        assert warm is True

    def test_entry_parses(self, registry):
        entry = registry.get(["Query", "Where"])
        parser = entry.parser()
        assert parser.accepts("SELECT a FROM t WHERE x = y")
        assert not parser.accepts("SELECT a, b FROM t")

    def test_peek_does_not_count_or_reorder(self, registry):
        entry = registry.get(["Query"])
        hits = registry.metrics.counter("hits")
        assert registry.peek(entry.fingerprint) is entry
        assert registry.metrics.counter("hits") == hits

    def test_contains_and_len(self, registry):
        assert len(registry) == 0
        entry = registry.get(["Query"])
        assert len(registry) == 1
        assert entry.fingerprint in registry

    def test_capacity_must_be_positive(self, registry):
        with pytest.raises(ValueError):
            ParserRegistry(registry.line, capacity=0)


class TestLRU:
    def test_eviction_order_respects_recency(self):
        registry = make_registry(capacity=2)
        a = registry.get(["Query"])
        b = registry.get(["Query", "Where"])
        # touch A so B becomes the least recently used
        assert registry.get(["Query"]) is a
        c = registry.get(["Query", "MultiColumn"])
        assert a.fingerprint in registry
        assert c.fingerprint in registry
        assert b.fingerprint not in registry
        assert registry.metrics.counter("evictions") == 1

    def test_evicted_entry_is_recomposed_on_return(self):
        registry = make_registry(capacity=1)
        registry.get(["Query"])
        registry.get(["Query", "Where"])  # evicts ["Query"]
        registry.get(["Query"])
        assert registry.metrics.counter("composes") == 3

    def test_manual_evict_and_clear(self, registry):
        entry = registry.get(["Query"])
        assert registry.evict(entry.fingerprint) is True
        assert registry.evict(entry.fingerprint) is False
        registry.get(["Query"])
        registry.get(["Query", "Where"])
        registry.clear()
        assert len(registry) == 0


def build(kind, registry, entry):
    """Produce one kind's artifact through the registry's own path."""
    if kind is IR:
        registry.parse_program(entry)
    elif kind is CLOSURES:
        registry.closure_program(entry)
    else:
        # the lexicon is written only when publishing for workers
        entry.publish_worker_artifacts(registry.cache_dir)


def read_back(kind, registry, entry):
    """Serve one kind from the disk cache; the artifact text it decoded to."""
    if kind is IR:
        return registry.parse_program(entry).to_json()
    if kind is CLOSURES:
        return registry.closure_program(entry).source
    digest = entry.fingerprint.digest
    grammar = ArtifactStore(registry.cache_dir, digest).fetch(LEX)
    return render_lexicon(grammar.tokens, digest, grammar.name, grammar.start)


def counter(registry, kind, name):
    """A per-kind counter (``disk_hits`` -> ``ir_disk_hits`` ...)."""
    return registry.metrics.counter(f"{kind.counter}_{name}")


class TestDiskCache:
    """Every artifact kind keeps the disk-cache contract: round-trip
    across registries, tamper -> invalidation, corrupt -> quarantine,
    nothing written without a cache directory."""

    def test_artifact_round_trip_across_registries(self, tmp_path):
        for kind in KINDS:
            first = make_registry(cache_dir=tmp_path)
            entry = first.get(["Query", "Where"])
            build(kind, first, entry)
            artifact = tmp_path / f"{entry.fingerprint.digest}{kind.suffix}"
            assert artifact.exists(), kind.name
            if kind.counter is not None:
                assert counter(first, kind, "compiles") == 1, kind.name
                assert counter(first, kind, "disk_misses") == 1, kind.name

            # a fresh registry (fresh process, in spirit) reuses the artifact
            second = make_registry(cache_dir=tmp_path)
            entry2 = second.get(["Query", "Where"])
            assert read_back(kind, second, entry2) == artifact.read_text()
            if kind.counter is not None:
                assert counter(second, kind, "disk_hits") == 1, kind.name
                assert counter(second, kind, "compiles") == 0, kind.name
        # the revived artifacts drive a parser
        parser = entry2.compiled_parser(cache_dir=tmp_path)
        assert parser.accepts("SELECT a FROM t WHERE x = y")

    def test_tampered_artifact_is_invalidated(self, tmp_path):
        for kind in KINDS:
            first = make_registry(cache_dir=tmp_path)
            entry = first.get(["Query", "Where"])
            build(kind, first, entry)
            artifact = tmp_path / f"{entry.fingerprint.digest}{kind.suffix}"

            # corrupt the embedded provenance: stale-file simulation
            text = artifact.read_text()
            assert entry.fingerprint.digest in text, kind.name
            artifact.write_text(
                text.replace(entry.fingerprint.digest, "0" * 64, 1)
            )

            second = make_registry(cache_dir=tmp_path)
            entry2 = second.get(["Query", "Where"])
            build(kind, second, entry2)
            if kind.counter is not None:
                assert counter(second, kind, "disk_invalidations") == 1
                assert counter(second, kind, "disk_hits") == 0
                assert counter(second, kind, "compiles") == 1
                assert counter(second, kind, "corrupt") == 0  # stale only
            # the rebuilt artifact replaces the bad one
            assert entry.fingerprint.digest in artifact.read_text(), kind.name

    def test_corrupt_artifact_is_quarantined(self, tmp_path):
        for kind in KINDS:
            registry = make_registry(cache_dir=tmp_path)
            entry = registry.get(["Query", "Where"])
            build(kind, registry, entry)
            artifact = tmp_path / f"{entry.fingerprint.digest}{kind.suffix}"
            bad = artifact.with_name(artifact.name + ".bad")
            artifact.write_text("")  # torn write: no provenance at all

            with pytest.raises(ArtifactMiss) as miss:
                ArtifactStore(tmp_path, entry.fingerprint.digest).fetch(
                    kind, entry.program()
                )
            assert miss.value.reason == "corrupt"
            assert miss.value.quarantined == (str(artifact),)
            assert bad.read_text() == ""  # kept aside for post-mortems
            bad.unlink()

            artifact.write_text("")
            fresh = make_registry(cache_dir=tmp_path)
            entry2 = fresh.get(["Query", "Where"])
            build(kind, fresh, entry2)
            if kind.counter is not None:
                assert counter(fresh, kind, "corrupt") == 1, kind.name
                assert fresh.metrics.counter("quarantined") == 1
                assert bad.exists(), kind.name
            # a valid artifact is rebuilt in the clean slot
            assert entry.fingerprint.digest in artifact.read_text(), kind.name

    def test_no_cache_dir_means_no_files(self, registry, tmp_path):
        entry = registry.get(["Query"])
        for kind in (IR, CLOSURES):  # the lexicon needs a directory anyway
            build(kind, registry, entry)
            assert counter(registry, kind, "disk_misses") == 0, kind.name
            assert counter(registry, kind, "compiles") == 1, kind.name
        assert list(tmp_path.iterdir()) == []

    def test_set_cache_dir_toggles(self, registry, tmp_path):
        registry.set_cache_dir(tmp_path)
        entry = registry.get(["Query"])
        for kind in KINDS:
            build(kind, registry, entry)
            assert (
                tmp_path / f"{entry.fingerprint.digest}{kind.suffix}"
            ).exists(), kind.name
        registry.set_cache_dir(None)
        assert registry.cache_dir is None


class TestConcurrency:
    def test_single_flight_composition(self, compose_calls):
        """16 threads race for one selection: exactly one composes."""
        registry = make_registry()
        n = 16
        barrier = threading.Barrier(n)
        entries = [None] * n
        errors = []

        def worker(i):
            try:
                barrier.wait()
                entries[i] = registry.get(["Query", "Where", "GroupBy"])
            except Exception as error:  # pragma: no cover - diagnostic aid
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert registry.metrics.counter("composes") == 1
        # all threads share the one composed entry
        assert len({id(e) for e in entries}) == 1
        # composition ran in exactly one thread
        assert len({t for t in compose_calls}) == 1

    def test_thread_parser_is_per_thread(self, registry):
        entry = registry.get(["Query"])
        main_parser = entry.thread_parser()
        assert entry.thread_parser() is main_parser

        seen = []

        def worker():
            seen.append(entry.thread_parser())
            seen.append(entry.thread_parser())

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen[0] is seen[1]
        assert seen[0] is not main_parser
        # both parsers share the compiled table
        assert seen[0].table is main_parser.table

    def test_concurrent_distinct_selections(self, registry):
        selections = [
            ["Query"],
            ["Query", "Where"],
            ["Query", "MultiColumn"],
            ["Query", "SetQuantifier"],
        ]
        results = {}
        barrier = threading.Barrier(len(selections))

        def worker(sel):
            barrier.wait()
            results[tuple(sel)] = registry.get(sel)

        threads = [
            threading.Thread(target=worker, args=(sel,)) for sel in selections
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(results) == 4
        assert registry.metrics.counter("composes") == 4
        fingerprints = {e.fingerprint.digest for e in results.values()}
        assert len(fingerprints) == 4


class TestProgramDiskCache:
    """ParseProgram artifacts (`<digest>.ir.json`) round-trip across processes."""

    def test_program_round_trip_across_registries(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        program = first.parse_program(entry)
        assert first.metrics.counter("ir_compiles") == 1
        assert first.metrics.counter("ir_disk_misses") == 1
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        assert artifact.exists()

        # a fresh registry (fresh process, in spirit) reuses the artifact
        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        program2 = second.parse_program(entry2)
        assert second.metrics.counter("ir_disk_hits") == 1
        assert second.metrics.counter("ir_compiles") == 0
        assert program2.fingerprint == program.fingerprint
        assert program2.code == program.code
        assert program2.sync == program.sync

        # the revived program actually drives a parser
        parser = entry2.parser()
        assert parser.program is program2
        assert parser.accepts("SELECT a FROM t WHERE x = y")
        assert not parser.accepts("SELECT a, b FROM t")

    def test_stale_program_artifact_is_rebuilt_not_loaded(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        first.parse_program(entry)
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"

        # corrupt the embedded provenance: stale-file simulation
        text = artifact.read_text()
        assert entry.fingerprint.digest in text
        artifact.write_text(
            text.replace(entry.fingerprint.digest, "0" * 64, 1)
        )

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        program = second.parse_program(entry2)
        assert second.metrics.counter("ir_disk_invalidations") == 1
        assert second.metrics.counter("ir_disk_hits") == 0
        assert second.metrics.counter("ir_compiles") == 1
        # the rebuilt artifact replaces the stale one and carries the
        # correct provenance again
        assert entry.fingerprint.digest in artifact.read_text()
        assert program.fingerprint == entry.fingerprint.digest

    def test_undecodable_program_artifact_is_rebuilt(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query"])
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        artifact.write_text("{not json")
        assert first.parse_program(entry) is not None
        assert first.metrics.counter("ir_disk_invalidations") == 1
        assert first.metrics.counter("ir_compiles") == 1

    def test_generated_source_shares_the_entry_program(self, tmp_path):
        """Codegen prints from the entry's (disk-cached) program: the
        generated backend compiles no second IR."""
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query", "GroupBy"])
        program = registry.parse_program(entry)
        generated = get_backend("generated").build(
            entry.product, program=program
        )
        assert registry.metrics.counter("ir_compiles") == 1
        assert (tmp_path / f"{entry.fingerprint.digest}.ir.json").exists()
        assert registry.parse_program(entry) is entry.program()
        assert generated.accepts("SELECT a FROM t GROUP BY a")

    def test_thread_parsers_share_one_program(self, registry):
        entry = registry.get(["Query"])
        main_parser = entry.thread_parser()
        seen = []

        def worker():
            seen.append(entry.thread_parser())

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen[0] is not main_parser
        assert seen[0].program is main_parser.program
        assert registry.metrics.counter("ir_compiles") == 1

class TestQuarantine:
    """Corrupt disk artifacts are renamed aside (``.bad``), counted as
    corruption (distinct from staleness), and rebuilt — the caller
    never sees an error."""

    def test_truncated_ir_artifact_is_quarantined_and_rebuilt(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        first.parse_program(entry)
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        text = artifact.read_text()
        artifact.write_text(text[: len(text) // 2])  # torn write simulation

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        program = second.parse_program(entry2)
        assert program is not None
        assert second.metrics.counter("ir_corrupt") == 1
        assert second.metrics.counter("quarantined") == 1
        # the bad bytes are kept aside for post-mortems...
        bad = tmp_path / f"{entry.fingerprint.digest}.ir.json.bad"
        assert bad.exists()
        assert bad.read_text() == text[: len(text) // 2]
        # ...and a valid artifact is rebuilt in the clean slot
        assert entry.fingerprint.digest in artifact.read_text()

    def test_zero_byte_artifacts_are_quarantined_and_rebuilt(self, tmp_path):
        registry = make_registry(cache_dir=tmp_path)
        entry = registry.get(["Query"])
        ir_path = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        closures_path = tmp_path / f"{entry.fingerprint.digest}.closures.py"
        ir_path.write_text("")
        closures_path.write_text("")

        assert registry.parse_program(entry) is not None
        closure = registry.closure_program(entry)
        assert FINGERPRINT_CONSTANT in closure.source
        assert registry.metrics.counter("ir_corrupt") == 1
        assert registry.metrics.counter("closure_corrupt") == 1
        assert registry.metrics.counter("quarantined") == 2
        # both slots hold fresh, valid artifacts again
        assert entry.fingerprint.digest in ir_path.read_text()
        assert entry.fingerprint.digest in closures_path.read_text()

    def test_mismatched_fingerprint_is_stale_not_corrupt(self, tmp_path):
        first = make_registry(cache_dir=tmp_path)
        entry = first.get(["Query", "Where"])
        first.parse_program(entry)
        artifact = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        artifact.write_text(
            artifact.read_text().replace(entry.fingerprint.digest, "0" * 64, 1)
        )

        second = make_registry(cache_dir=tmp_path)
        entry2 = second.get(["Query", "Where"])
        assert second.parse_program(entry2) is not None
        # stale provenance is quarantined but NOT counted as corruption
        assert second.metrics.counter("ir_disk_invalidations") == 1
        assert second.metrics.counter("ir_corrupt") == 0
        assert second.metrics.counter("quarantined") == 1
        assert (tmp_path / f"{entry.fingerprint.digest}.ir.json.bad").exists()

    def test_unreadable_artifact_is_retried_then_quarantined(self, tmp_path):
        """An OSError on read (here: a directory squatting on the
        artifact path) is retried as transient, then treated as
        corruption and rebuilt — not surfaced as a crash."""
        from repro.resilience import RetryPolicy

        line = GrammarProductLine(mini_model(), mini_units(), name="mini-sql")
        registry = ParserRegistry(
            line,
            cache_dir=tmp_path,
            retry_policy=RetryPolicy(attempts=3, base_delay=0.001),
        )
        entry = registry.get(["Query"])
        ir_path = tmp_path / f"{entry.fingerprint.digest}.ir.json"
        ir_path.mkdir()

        assert registry.parse_program(entry) is not None
        assert registry.metrics.counter("retries") == 2  # attempts - 1
        assert registry.metrics.counter("ir_corrupt") == 1
        assert registry.metrics.counter("quarantined") == 1
        # the squatter was moved aside and a real file rebuilt in place
        assert (tmp_path / f"{entry.fingerprint.digest}.ir.json.bad").is_dir()
        assert ir_path.is_file()


class TestConcurrentEviction:
    def test_entry_evicted_while_another_thread_parses_through_it(self):
        """Eviction only drops the registry's reference: a thread
        holding the entry keeps parsing, and re-acquiring the selection
        composes a fresh, equally valid entry."""
        registry = make_registry(capacity=1)
        entry = registry.get(["Query"])
        errors = []
        stop = threading.Event()

        def parse_forever():
            try:
                while not stop.is_set():
                    assert entry.thread_parser().accepts("SELECT a FROM t")
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        def churn():
            try:
                for _ in range(25):
                    # capacity 1: each get evicts the previous entry
                    registry.get(["Query", "Where"])
                    registry.get(["Query", "GroupBy"])
                    revived = registry.get(["Query"])
                    assert revived.thread_parser().accepts("SELECT a FROM t")
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        workers = [threading.Thread(target=parse_forever) for _ in range(2)]
        churner = threading.Thread(target=churn)
        for t in workers:
            t.start()
        churner.start()
        churner.join()
        stop.set()
        for t in workers:
            t.join()
        assert errors == []
        assert registry.metrics.counter("evictions") > 0
