"""Process-pool workers: bootstrap parsers from on-disk artifacts.

The GIL caps a thread pool's batch throughput at roughly one core, so
:class:`~repro.service.service.ParseService` can fan batches out over a
``ProcessPoolExecutor`` instead.  The parent/worker protocol keeps the
pipe thin and the workers stateless:

* the **parent** composes (at most once, via the registry), publishes
  every artifact a worker needs under the cache directory —
  ``<digest>.ir.json`` (the parse program), ``<digest>.lex.json`` (the
  lexicon, so workers can build a scanner), and
  ``<digest>.closures.py`` for the compiled backend — and ships only a
  :class:`WorkerTask` (fingerprint digest + backend name + texts) across
  the pipe.  **No grammar composition ever happens in a worker.**
* each **worker** keeps a small per-process cache of bootstrapped
  parsers keyed by ``(digest, backend)``; a miss reads the artifacts
  through the same :class:`~repro.service.artifacts.ArtifactStore` the
  registry uses.  A corrupt artifact is quarantined (renamed ``.bad``)
  and reported back as a *bootstrap failure* reply — never an
  exception — so the pool cannot deadlock and the parent can republish
  from its in-memory entry and retry.
* replies (:class:`WorkerReply`) carry the parse tree + diagnostics,
  which pickle cleanly; monotonic deadlines do **not** cross processes,
  so tasks carry *remaining seconds* and the worker rebuilds an absolute
  :class:`~repro.resilience.deadline.Deadline` on arrival.

Worker parsers serve hint-less diagnostics: "enable feature X" hints
need the composed product, which deliberately never crosses the pipe.
Trees, error codes, and positions are identical to the in-parent paths.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from .artifacts import CLOSURES, IR, LEX, ArtifactMiss, ArtifactStore

#: Parsers cached per worker process (small: workers are many).
WORKER_CACHE_CAPACITY = 8


# -- task / reply envelopes --------------------------------------------------


@dataclass(frozen=True)
class WorkerTask:
    """One chunk of parse requests shipped to a worker process.

    Everything here pickles in a few hundred bytes: the artifacts stay
    on disk, keyed by ``digest``.  Several texts per task amortize one
    pipe round-trip (and one bootstrap check) — essential when parses
    are microseconds and IPC is not.  ``deadline_remaining`` is relative
    seconds per text (monotonic clocks are per-process).
    """

    digest: str
    cache_dir: str
    backend: str
    texts: tuple[str, ...]
    start: str | None = None
    max_errors: int | None = 25
    max_steps: int | None = None
    deadline_remaining: float | None = None


@dataclass
class WorkerReply:
    """Outcome of one text of a :class:`WorkerTask` — returned, never raised.

    Attributes:
        tree / diagnostics: The parse outcome (``None`` on failure).
        seconds: Worker-side parse time (bootstrap excluded).
        bootstrapped: True when this task built a fresh parser in the
            worker (first request for the fingerprint in this process).
        bootstrap_failed: True when the artifacts could not be loaded;
            ``error`` says why and ``quarantined`` lists artifacts the
            worker renamed aside.  The parent republishes and retries.
        internal_error: True when the parse itself raised unexpectedly
            (the parent degrades to an in-process parse).
    """

    tree: Any = None
    diagnostics: Any = None
    seconds: float = 0.0
    bootstrapped: bool = False
    bootstrap_failed: bool = False
    internal_error: bool = False
    error: str | None = None
    quarantined: tuple[str, ...] = field(default_factory=tuple)


# -- worker-side bootstrap ---------------------------------------------------

#: Per-process parser cache: ``(digest, backend) -> parser``.
_PARSERS: "OrderedDict[tuple[str, str], Any]" = OrderedDict()


def _bootstrap_parser(task: WorkerTask):
    """Build a parser for ``task`` purely from on-disk artifacts.

    Raises :class:`~repro.service.artifacts.ArtifactMiss` (after
    quarantining whatever was stale or corrupt) when an artifact is
    missing or bad — the *only* exception the caller sees.
    """
    from ..lexer.scanner import Scanner
    from ..parsing.closures import ClosureParser
    from ..parsing.parser import Parser

    store = ArtifactStore(task.cache_dir, task.digest)
    grammar = store.fetch(LEX)
    program = store.fetch(IR)
    grammar.start = grammar.start or program.start_name()
    scanner = Scanner(grammar.tokens)
    if task.backend == "compiled":
        closure = store.fetch(CLOSURES, program)
        return ClosureParser(grammar, closure, scanner=scanner)
    return Parser(grammar, scanner=scanner, program=program)


def _parser_for(task: WorkerTask):
    """The worker's cached parser for a task, bootstrapping on miss."""
    key = (task.digest, task.backend)
    cached = _PARSERS.get(key)
    if cached is not None:
        _PARSERS.move_to_end(key)
        return cached, False
    built = _bootstrap_parser(task)
    _PARSERS[key] = built
    while len(_PARSERS) > WORKER_CACHE_CAPACITY:
        _PARSERS.popitem(last=False)
    return built, True


def execute_batch(task: WorkerTask) -> list[WorkerReply]:
    """The process-pool entry point: parse every text of ``task``.

    One pipe round-trip carries N texts out and N replies back, so
    per-task IPC overhead is amortized across the chunk — the difference
    between a process pool that scales and one that drowns in pickling
    for sub-millisecond parses.  Never raises: a bootstrap failure
    returns a single flagged reply (the parent republishes and retries
    the whole chunk); per-text parse failures stay per-text.
    """
    from ..resilience.deadline import Deadline

    try:
        parser, bootstrapped = _parser_for(task)
    except ArtifactMiss as miss:
        return [
            WorkerReply(
                bootstrap_failed=True,
                error=str(miss),
                quarantined=miss.quarantined,
            )
        ]
    except Exception as error:  # never let anything else out either
        return [WorkerReply(bootstrap_failed=True, error=repr(error))]

    replies = []
    for text in task.texts:
        # each text gets its own budget from when its turn starts —
        # the closest per-process analogue of "deadline per request"
        deadline = (
            Deadline.after(task.deadline_remaining)
            if task.deadline_remaining is not None
            else None
        )
        t0 = time.perf_counter()
        try:
            outcome = parser.parse_with_diagnostics(
                text,
                start=task.start,
                max_errors=task.max_errors,
                max_steps=task.max_steps,
                deadline=deadline,
            )
        except Exception as error:
            reply = WorkerReply(internal_error=True, error=repr(error))
        else:
            reply = WorkerReply(
                tree=outcome.tree, diagnostics=outcome.diagnostics
            )
        reply.seconds = time.perf_counter() - t0
        reply.bootstrapped = bootstrapped
        replies.append(reply)
        bootstrapped = False  # only the first reply reports the bootstrap
    return replies


def reset_worker_cache() -> None:
    """Drop every bootstrapped parser (tests; never needed in production)."""
    _PARSERS.clear()
