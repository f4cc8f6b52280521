"""Seeded inputs of the four workloads.

Every workload is a list of *rounds*; a run attempts whole rounds only, so
the make-up of the attempted operations (and the share of them that hit a
known fault) is the same in every run, whatever the seed or run length.
The seed chooses the queries, selections and orders; it never changes how
many operations of each kind a round holds.
"""

from __future__ import annotations

import random

from repro.sql.dialects import dialect_features, dialect_names
from repro.workloads import generate_workload

PRESETS = tuple(dialect_names())  # scql, tinysql, core, analytics, full

# op kinds (small ints keep the round tuples untracked by the cyclic GC)
VALID, MALFORMED, GAP, TRANSLATE, DEEP, ASYNC = range(6)
KIND_NAMES = ("valid", "malformed", "gap", "translate", "deep", "async")

#: interactive round: 35 valid (7 per preset), 5 malformed (one per
#: preset), 5 feature gaps, 4 translations, 1 deep query = 50 operations.
#: One valid scql and one valid tinysql query go through the async front
#: end, awaited by the same client, so the async layer is measured too.
VALID_PER_PRESET = 7
ASYNC_PRESETS = ("scql", "tinysql")
TRANSLATIONS = (("scql", "core"), ("core", "full"), ("full", "core"),
                ("core", "analytics"))
INTERACTIVE_POOL_ROUNDS = 16

#: bulk round: one batch of each size (1016 queries); the seed sets the
#: order of the batches and which queries fill them
BATCH_SIZES = (8, 16, 32, 64, 128, 256, 512)
BULK_LAYOUTS = 8

#: serve round: two clients, 20 requests each; at 6 positions (30%) both
#: clients send the same hot query at once, so coalescing fires.  The six
#: hot queries (one per preset, two for full) all occur in every round.
SERVE_PER_CLIENT = 20
SERVE_HOT = 6
SERVE_POOL_ROUNDS = 16

#: tailor round: 7 fresh selections, 2 revisits after LRU eviction, and
#: one selection that hits the undefined-nonterminal fault
TAILOR_BASES = ("scql", "tinysql", "core", "analytics")
TAILOR_QUERIES = 5
TAILOR_CAPACITY = 2
#: slot layout: ("F", base) = fresh draw on that base, ("R", i) = revisit of
#: the round's i-th op after two newer selections evicted it (capacity 2),
#: ("X", None) = the fixed faulty selection.  Bases are fixed per slot so
#: every round composes the same mix of preset sizes: six of the ten
#: operations make a core or analytics product ready, so the median falls
#: among those and not on the gap between small and large products.
TAILOR_SLOTS = (("F", "scql"), ("F", "tinysql"), ("F", "core"),
                ("F", "analytics"), ("F", "core"), ("R", 0), ("F", "analytics"),
                ("F", "core"), ("R", 2), ("X", None))

#: Selections the feature model admits whose composed grammar references
#: an undefined nonterminal (join_suffix, interval_field,
#: alter_table_action).  They do not depend on the seed: one of them closes
#: every tailor round, cycled in this order.
FAULTY_SELECTIONS = (
    ("scql", ("OnCondition",)),
    ("tinysql", ("IntervalLiteral",)),
    ("core", ("AlterTable",)),
    ("analytics", ("AlterSequence",)),
    ("scql", ("JoinedTable",)),
    ("core", ("IntervalType",)),
    ("analytics", ("AlterDomain",)),
    ("scql", ("UsingColumns",)),
)


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}|{purpose}")


def _queries(rng: random.Random, dialect: str, count: int) -> list[str]:
    return generate_workload(dialect, count, seed=rng.randrange(2**31))


def first_request(dialect: str) -> str:
    """The fixed query a dialect answers during set-up."""
    return generate_workload(dialect, 1, seed=0)[0]


# -- interactive ---------------------------------------------------------------


def deep_queries() -> list[tuple[str, str]]:
    """Valid core/full queries nested 17-40 deep (seed-independent).

    The parser's depth limit counts grammar rule frames, not user nesting,
    so every one of these is rejected with E0202 today.
    """
    def parens(d):
        return "SELECT id FROM orders WHERE " + "(" * d + "qty > 1" + ")" * d

    def derived(d):
        return "SELECT id FROM " + "(SELECT id FROM " * d + "orders" + ") AS t" * d

    def in_subquery(d):
        return ("SELECT id FROM orders WHERE "
                + "id IN (SELECT id FROM items WHERE " * d + "qty > 1" + ")" * d)

    out = []
    for depth in range(17, 41):
        for build in (parens, derived, in_subquery):
            for dialect in ("core", "full"):
                out.append((dialect, build(depth)))
    return out


def _gap_ops(rng: random.Random) -> list[tuple]:
    """Five feature-gap rejects: a construct whose feature is unselected.

    Each op is ``(GAP, dialect, text, None, column)``: the first error must
    sit at or after the 1-based ``column`` of the construct's first token.
    """
    scql = _queries(rng, "scql", 1)[0]
    tiny = _queries(rng, "tinysql", 2)
    core_with = _queries(rng, "core", 1)[0]
    core_select = next(
        q for q in _queries(rng, "core", 16)
        if q.startswith("SELECT ") and not q.startswith("SELECT DISTINCT")
    )
    cut = len("SELECT ")
    return [
        (GAP, "scql", scql + " UNION SELECT id FROM items", None, len(scql) + 2),
        (GAP, "tinysql", tiny[0] + " ORDER BY nodeid", None, len(tiny[0]) + 2),
        (GAP, "tinysql", "WITH w AS (SELECT nodeid FROM sensors) " + tiny[1],
         None, 1),
        (GAP, "core", "WITH w AS (SELECT id FROM items) " + core_with, None, 1),
        (GAP, "core",
         core_select[:cut] + "RANK() OVER (ORDER BY id), " + core_select[cut:],
         None, cut + 1),
    ]


def interactive_rounds(seed: int) -> list[list[tuple]]:
    """Rounds of ``(kind, dialect, text, target, column)`` operations."""
    rng = _rng(seed, "interactive")
    deep = deep_queries()
    rounds = []
    for index in range(INTERACTIVE_POOL_ROUNDS):
        ops = []
        for dialect in PRESETS:
            for i, text in enumerate(_queries(rng, dialect, VALID_PER_PRESET)):
                kind = ASYNC if i == 0 and dialect in ASYNC_PRESETS else VALID
                ops.append((kind, dialect, text, None, 0))
            base = _queries(rng, dialect, 1)[0]
            # an unmatched ")" after a complete query: by the correct-prefix
            # property the first error is exactly at the appended token
            ops.append((MALFORMED, dialect, base + " )", None, len(base) + 2))
        ops.extend(_gap_ops(rng))
        for source, target in TRANSLATIONS:
            ops.append((TRANSLATE, source, _queries(rng, source, 1)[0], target, 0))
        # spread over depths and constructs; the same for every seed
        dialect, text = deep[(index * 37) % len(deep)]
        ops.append((DEEP, dialect, text, None, 0))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# -- bulk ----------------------------------------------------------------------


def bulk_rounds(seed: int) -> list[list[list[str]]]:
    """Rounds of batches of ``full`` queries, one batch per size."""
    rng = _rng(seed, "bulk")
    pool = _queries(rng, "full", sum(BATCH_SIZES))
    rounds = []
    for _ in range(BULK_LAYOUTS):
        order = list(pool)
        rng.shuffle(order)
        sizes = list(BATCH_SIZES)
        rng.shuffle(sizes)
        batches, lo = [], 0
        for size in sizes:
            batches.append(order[lo:lo + size])
            lo += size
        rounds.append(batches)
    return rounds


# -- serve ---------------------------------------------------------------------


def serve_rounds(seed: int) -> list[tuple[list, list]]:
    """Rounds of ``(client_a, client_b)`` request lists of ``(dialect, text)``."""
    rng = _rng(seed, "serve")
    hot = [(d, _queries(rng, d, 1)[0]) for d in PRESETS + ("full",)]
    rounds = []
    for _ in range(SERVE_POOL_ROUNDS):
        slots = sorted(rng.sample(range(SERVE_PER_CLIENT), SERVE_HOT))
        rng.shuffle(hot)
        clients = []
        for _client in range(2):
            cold = []
            for i in range(SERVE_PER_CLIENT - SERVE_HOT):
                dialect = PRESETS[i % len(PRESETS)]
                cold.append((dialect, _queries(rng, dialect, 1)[0]))
            rng.shuffle(cold)
            clients.append(cold)
        a, b = [], []
        for i in range(SERVE_PER_CLIENT):
            if i in slots:
                request = hot[slots.index(i)]
                a.append(request)
                b.append(request)
            else:
                a.append(clients[0].pop())
                b.append(clients[1].pop())
        rounds.append((a, b))
    return rounds


# -- tailor --------------------------------------------------------------------


def undefined_nonterminals(line, config) -> frozenset[str]:
    """Nonterminals the selected units reference but none defines.

    A static reading of the composed grammar's undefined references: it
    agrees with composing the selection and calling
    ``Grammar.undefined_nonterminals()``, at a fraction of the cost.
    """
    defined: set[str] = set()
    referenced: set[str] = set()
    for name in config.selected:
        unit = line.unit_for(name)
        if unit is None or unit.grammar is None:
            continue
        defined.update(unit.grammar.rule_names())
        referenced.update(unit.grammar.referenced_nonterminals())
    return frozenset(referenced - defined)


class TailorStream:
    """Seeded draws of tailor-made selections.

    A draw is a base preset plus one to three optional features that have
    a unit and are outside the preset's resolved selection.
    """

    def __init__(self, line, seed: int) -> None:
        self.line = line
        self.rng = _rng(seed, "tailor")
        optional = [f.name for f in line.model.root.walk()
                    if f.optional and line.unit_for(f.name) is not None]
        self.candidates = {}
        for base in TAILOR_BASES:
            selected = line.resolve_configuration(dialect_features(base)).selected
            self.candidates[base] = [n for n in optional if n not in selected]

    def draw(self, base: str):
        """``(added, resolved configuration or the refusal, undefined)``."""
        from repro.errors import ReproError

        added = tuple(self.rng.sample(self.candidates[base], self.rng.randint(1, 3)))
        try:
            config = self.line.resolve_configuration(
                dialect_features(base) + list(added))
        except ReproError as error:
            return added, error, frozenset()
        return added, config, undefined_nonterminals(self.line, config)


def tailor_rounds(line, seed: int, n_rounds: int, log=None) -> list:
    """Rounds of ``(slot, base, features, queries)``.

    Draws that hit the undefined-nonterminal fault fail only on the seeds
    that draw them, so they are left out of the rounds and drawn again;
    the fault is kept as the fixed ``X`` slot.  Duplicate selections are
    drawn again too, so every fresh slot is cold.  ``log`` receives every
    draw as ``(round, base, added, outcome)``.
    """
    rng = _rng(seed, "tailor-queries")
    queries = {b: _queries(rng, b, TAILOR_QUERIES) for b in TAILOR_BASES}
    stream = TailorStream(line, seed)
    seen: set[frozenset] = set()
    rounds = []
    for index in range(n_rounds):
        ops: list[tuple] = []
        for slot, arg in TAILOR_SLOTS:
            if slot == "X":
                base, added = FAULTY_SELECTIONS[index % len(FAULTY_SELECTIONS)]
                ops.append(("X", base, tuple(dialect_features(base)) + added,
                            queries[base]))
                if log is not None:
                    log(index, base, added, "fixed faulty slot")
                continue
            if slot == "R":
                ops.append(("R",) + ops[arg][1:])
                continue
            while True:
                added, config, undefined = stream.draw(arg)
                if undefined:
                    outcome = "left out: undefined " + ", ".join(sorted(undefined))
                elif isinstance(config, Exception):
                    outcome = f"kept: refused ({config.code})"
                elif frozenset(config.selected) in seen:
                    outcome = "left out: duplicate"
                else:
                    seen.add(frozenset(config.selected))
                    outcome = "kept"
                if log is not None:
                    log(index, arg, added, outcome)
                if outcome.startswith("kept"):
                    break
            ops.append(("F", arg, tuple(dialect_features(arg)) + added, queries[arg]))
        rounds.append(ops)
    return rounds
