"""Coverage instrumentation over the parse-program interpreter.

The contract under test: instrumentation is opt-in and decision-exact —
an instrumented parse produces the same tree and diagnostics as a plain
one while counting rule entries, CHOICE-alternative selections, and
OPT/LOOP/SEPLOOP edges; collectors merge across parsers (and threads)
but never across programs.
"""

import pytest

from repro.parsing.coverage import CoverageMap
from repro.service import ParseService, ParserRegistry
from repro.sql import build_dialect, build_sql_product_line, dialect_features

ACCEPTED = [
    "SELECT a FROM t",
    "SELECT a, b FROM t WHERE a = 1",
    "SELECT * FROM t WHERE a = 1 AND b < 2",
    "INSERT INTO t VALUES (1, 'x')",
    "DELETE FROM t WHERE a = 3",
]
REJECTED = [
    "SELECT a FROM t ORDER BY a",
    "SELECT FROM t",
    "SELECT a FROM",
]


@pytest.fixture(scope="module")
def scql():
    return build_dialect("scql")


@pytest.fixture(scope="module")
def scql_program(scql):
    return scql.program()


class TestCoverageMap:
    def test_sizing_matches_program(self, scql_program):
        cmap = CoverageMap(scql_program)
        size = cmap.size()
        assert size["rules"] == len(scql_program.rule_names)
        assert size["alternative_slots"] == sum(
            p.n_alts for p in cmap.choices
        )
        assert size["edges"] == 2 * size["decision_points"]
        # every alternative slot is reachable through a dispatch block
        assert len(cmap.slot_of_block) == cmap.n_alt_slots
        assert len(cmap.decision_of_instr) == len(cmap.decisions)

    def test_numbering_is_deterministic(self, scql_program):
        a, b = CoverageMap(scql_program), CoverageMap(scql_program)
        assert [p.label for p in a.choices] == [p.label for p in b.choices]
        assert [p.base for p in a.choices] == [p.base for p in b.choices]
        assert [p.label for p in a.decisions] == [
            p.label for p in b.decisions
        ]

    def test_points_carry_rule_provenance(self, scql_program):
        cmap = CoverageMap(scql_program)
        for point in cmap.choices + cmap.decisions:
            name = scql_program.rule_names[point.rule_id]
            assert point.label.startswith(f"{name}/")


class TestCollector:
    def test_counts_rule_entries_and_decisions(self, scql):
        parser = scql.parser()
        collector = parser.enable_coverage()
        assert parser.accepts("SELECT a, b FROM t WHERE a = 1")
        assert collector.rules_covered() > 0
        assert collector.alts_covered() > 0
        assert collector.edges_covered() > 0
        counts = collector.counts()
        for covered, total in counts.values():
            assert 0 < covered <= total

    def test_more_inputs_never_lose_coverage(self, scql):
        parser = scql.parser()
        collector = parser.enable_coverage()
        scores = []
        for query in ACCEPTED:
            parser.accepts(query)
            scores.append(collector.score())
        assert scores == sorted(scores)

    def test_opt_edges_both_ways(self, scql):
        """A WHERE-less and a WHERE-ful parse exercise both OPT edges."""
        parser = scql.parser()
        collector = parser.enable_coverage()
        parser.accepts("SELECT a FROM t")
        after_skip = collector.edges_covered()
        parser.accepts("SELECT a FROM t WHERE a = 1")
        assert collector.edges_covered() > after_skip

    def test_rejected_inputs_still_count(self, scql):
        parser = scql.parser()
        collector = parser.enable_coverage()
        assert not parser.accepts("SELECT FROM t")
        assert collector.score() > 0

    def test_reset_zeroes_everything(self, scql):
        parser = scql.parser()
        collector = parser.enable_coverage()
        parser.accepts("SELECT a FROM t")
        assert collector.score() > 0
        collector.reset()
        assert collector.score() == 0
        assert collector.uncovered_rules() == list(
            collector.map.program.rule_names
        )

    def test_uncovered_listings_complement_counts(self, scql):
        parser = scql.parser()
        collector = parser.enable_coverage()
        for query in ACCEPTED:
            parser.accepts(query)
        counts = collector.counts()
        rules_covered, rules_total = counts["rules"]
        assert len(collector.uncovered_rules()) == rules_total - rules_covered
        alts_covered, alts_total = counts["alternatives"]
        assert (
            len(collector.uncovered_alternatives())
            == alts_total - alts_covered
        )
        edges_covered, edges_total = counts["edges"]
        assert len(collector.uncovered_edges()) == edges_total - edges_covered


class TestInstrumentedParity:
    @pytest.mark.parametrize("query", ACCEPTED + REJECTED)
    def test_same_tree_and_diagnostics(self, scql, query):
        plain = scql.parser(hints=True)
        instrumented = scql.parser(hints=True)
        instrumented.enable_coverage()
        expected = plain.parse_with_diagnostics(query)
        actual = instrumented.parse_with_diagnostics(query)
        assert actual.ok == expected.ok
        assert actual.tree == expected.tree
        assert [d.code for d in actual.diagnostics] == [
            d.code for d in expected.diagnostics
        ]

    def test_accepts_agrees(self, scql):
        plain = scql.parser()
        instrumented = scql.parser()
        instrumented.enable_coverage()
        for query in ACCEPTED + REJECTED:
            assert instrumented.accepts(query) == plain.accepts(query)


class TestEnableDisable:
    def test_disable_restores_plain_path(self, scql):
        parser = scql.parser()
        cls = type(parser)
        assert parser._exec.__func__ is cls._exec
        collector = parser.enable_coverage()
        assert parser._exec.__func__ is cls._exec_cov
        assert parser._call_rule.__func__ is cls._call_rule_cov
        assert parser.coverage is collector
        returned = parser.disable_coverage()
        assert returned is collector
        assert parser._exec.__func__ is cls._exec
        assert parser._call_rule.__func__ is cls._call_rule
        assert parser.coverage is None

    def test_disabled_parser_stops_counting(self, scql):
        parser = scql.parser()
        collector = parser.enable_coverage()
        parser.accepts("SELECT a FROM t")
        frozen = collector.score()
        parser.disable_coverage()
        parser.accepts("SELECT a, b FROM t WHERE a = 1")
        assert collector.score() == frozen

    def test_enable_rejects_foreign_collector(self, scql):
        core = build_dialect("core")
        foreign = CoverageMap(core.program()).collector()
        parser = scql.parser()
        with pytest.raises(ValueError):
            parser.enable_coverage(foreign)

    def test_explicit_collector_is_used(self, scql, scql_program):
        shared = CoverageMap(scql_program).collector()
        parser = scql.parser(program=scql_program)
        assert parser.enable_coverage(shared) is shared
        parser.accepts("SELECT a FROM t")
        assert shared.score() > 0


class TestMerge:
    def test_merge_sums_counts(self, scql, scql_program):
        cmap = CoverageMap(scql_program)
        a, b = cmap.collector(), cmap.collector()
        pa = scql.parser(program=scql_program)
        pa.enable_coverage(a)
        pa.accepts("SELECT a FROM t")
        pb = scql.parser(program=scql_program)
        pb.enable_coverage(b)
        pb.accepts("INSERT INTO t VALUES (1)")
        expected_rules = [x + y for x, y in zip(a.rules, b.rules)]
        a.merge(b)
        assert a.rules == expected_rules
        # merging an empty collector is a no-op
        before = (list(a.rules), list(a.alts), list(a.taken), list(a.skipped))
        a.merge(cmap.collector())
        assert (list(a.rules), list(a.alts), list(a.taken), list(a.skipped)) == before

    def test_merge_rejects_cross_program(self, scql_program):
        core_program = build_dialect("core").program()
        ours = CoverageMap(scql_program).collector()
        theirs = CoverageMap(core_program).collector()
        with pytest.raises(ValueError):
            ours.merge(theirs)


class TestServiceCoverage:
    def test_parse_merges_into_caller_collector(self):
        line = build_sql_product_line()
        features = dialect_features("scql")
        with ParseService(registry=ParserRegistry(line, capacity=4)) as svc:
            shared = svc.registry.get(features).coverage_collector()
            result = svc.parse("SELECT a FROM t", features, coverage=shared)
            assert result.ok
            assert shared.score() > 0

    def test_parse_many_accumulates_across_workers(self):
        line = build_sql_product_line()
        features = dialect_features("scql")
        texts = ACCEPTED * 3
        with ParseService(
            registry=ParserRegistry(line, capacity=4), max_workers=4
        ) as svc:
            entry = svc.registry.get(features)
            shared = entry.coverage_collector()
            results = svc.parse_many(texts, features, coverage=shared)
            assert all(r.ok for r in results)
            # the start rule is entered once per text
            start_hits = max(shared.rules)
            assert start_hits >= len(texts)

    def test_coverage_request_spares_plain_thread_parser(self):
        """Coverage requests run on a dedicated instrumented parser: the
        cached plain parser is never flipped (the flip would permanently
        deoptimize its instance storage)."""
        from repro.parsing.parser import Parser

        line = build_sql_product_line()
        features = dialect_features("scql")
        with ParseService(registry=ParserRegistry(line, capacity=4)) as svc:
            svc.parse("SELECT a FROM t", features)
            entry = svc.registry.get(features)
            plain = entry.thread_parser()
            shared = entry.coverage_collector()
            svc.parse("SELECT a FROM t", features, coverage=shared)
            assert shared.score() > 0
            assert entry.thread_parser() is plain
            assert type(plain) is Parser
            assert entry.thread_parser_for("interpreter", True) is not plain
            # the compiled serving backend keeps the same split
            assert (
                entry.thread_parser_for("compiled", True)
                is not entry.thread_compiled_parser()
            )

    def test_uninstrumented_parse_leaves_no_trace(self):
        line = build_sql_product_line()
        features = dialect_features("scql")
        with ParseService(registry=ParserRegistry(line, capacity=4)) as svc:
            entry = svc.registry.get(features)
            shared = entry.coverage_collector()
            svc.parse("SELECT a FROM t", features)  # no coverage= argument
            assert shared.score() == 0
