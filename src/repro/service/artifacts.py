"""The on-disk artifact format: one descriptor per kind, one store.

A composed product is persisted under a cache directory as three
artifacts, each named ``<digest><suffix>`` and each embedding the
fingerprint digest it was built for:

* ``ir`` (``<digest>.ir.json``) — the compiled parse program;
* ``closures`` (``<digest>.closures.py``) — the closure-compiled
  backend source;
* ``lex`` (``<digest>.lex.json``) — token definitions plus start rule,
  so a process-pool worker can build a scanner without the grammar.

:class:`ArtifactKind` describes one kind: its suffix, how to peek at the
embedded fingerprint, how to encode and decode it, which counters it
feeds, and its ``artifact.read.<kind>``/``artifact.write.<kind>`` fault
sites.  :class:`ArtifactStore` is the single load → validate →
quarantine → store path for every kind, shared by the registry (with
metrics, fault injection and retries) and by process-pool workers
(without them).  A stale or corrupt file is renamed aside with a
``.bad`` suffix, never served.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..lexer.spec import TokenDef, TokenSet
from ..parsing.closures import ClosureProgram, closure_fingerprint
from ..parsing.program import ParseProgram, program_fingerprint
from ..resilience.retry import retry_call

#: Suffix appended to a quarantined (stale or corrupt) artifact.
QUARANTINE_SUFFIX = ".bad"

#: Version tag embedded in the lexicon artifact.
LEXICON_VERSION = 1

#: Why an artifact could not be served from disk.
MISSING, UNREADABLE, STALE, CORRUPT = "missing", "unreadable", "stale", "corrupt"


# -- the lexicon artifact ----------------------------------------------------


def render_lexicon(tokens: Any, fingerprint: str, grammar_name: str,
                   start: str | None) -> str:
    """Serialize a token set as the ``<digest>.lex.json`` artifact.

    The IR artifact carries token *names* only; this carries the token
    *definitions* (patterns, kinds, priorities) a worker needs to build
    a scanner, plus the start rule, with the same embedded-fingerprint
    provenance convention as every other artifact kind.
    """
    payload = {
        "kind": "repro-lexicon",
        "version": LEXICON_VERSION,
        "fingerprint": fingerprint,
        "grammar": grammar_name,
        "start": start,
        "tokens": [
            {
                "name": d.name,
                "pattern": d.pattern,
                "kind": d.kind,
                "priority": d.priority,
                "skip": d.skip,
            }
            for d in tokens
        ],
    }
    return json.dumps(payload, indent=None, sort_keys=True)


def lexicon_fingerprint(text: str) -> str | None:
    """The fingerprint embedded in a lexicon artifact (None when unreadable)."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if not isinstance(payload, dict) or payload.get("kind") != "repro-lexicon":
        return None
    digest = payload.get("fingerprint")
    return digest if isinstance(digest, str) else None


class ArtifactGrammar:
    """Just enough grammar surface for a parser driven by a ParseProgram.

    A worker has no composed :class:`~repro.grammar.grammar.Grammar`
    (that would mean recomposition); the parse driver only ever touches
    ``.start``, ``.tokens``, ``.name``, and ``.rule()`` on the unknown-
    start-rule error path, so this shim carries exactly those.
    """

    __slots__ = ("name", "start", "tokens")

    def __init__(self, name: str, start: str | None, tokens: Any) -> None:
        self.name = name
        self.start = start
        self.tokens = tokens

    def rule(self, name: str):
        from ..errors import UndefinedNonterminalError

        raise UndefinedNonterminalError(
            f"grammar {self.name!r} has no rule {name!r}"
        )


def _encode_lexicon(product: Any) -> str:
    grammar = product.grammar
    return render_lexicon(
        grammar.tokens, product.fingerprint.digest, grammar.name, grammar.start
    )


def _decode_lexicon(text: str, _context: Any = None) -> ArtifactGrammar:
    payload = json.loads(text)
    if payload.get("version") != LEXICON_VERSION:
        raise ValueError(
            f"unsupported lexicon artifact version {payload.get('version')!r}"
        )
    name = payload.get("grammar") or ""
    tokens = TokenSet(name=name)
    for entry in payload["tokens"]:
        tokens.add(
            TokenDef(
                name=entry["name"],
                pattern=entry["pattern"],
                kind=entry["kind"],
                priority=entry["priority"],
                skip=entry["skip"],
            )
        )
    return ArtifactGrammar(name, payload.get("start"), tokens)


# -- kinds -------------------------------------------------------------------


@dataclass(frozen=True)
class ArtifactKind:
    """How one artifact kind is named, validated, encoded and decoded.

    Attributes:
        name: Kind name (``ir``/``closures``/``lex``); also names the
            fault sites ``artifact.read.<name>``/``artifact.write.<name>``.
        suffix: File suffix after the fingerprint digest.
        peek: Embedded fingerprint of an artifact text (``None`` when
            the text is unreadable) — checked before any decoding.
        encode: In-memory value → artifact text.
        decode: ``(text, context)`` → in-memory value; raises on
            corruption.  ``context`` is whatever the kind depends on
            (the closures kind needs its parse program).
        counter: Prefix of the kind's counters —
            ``<counter>_disk_hits``/``_disk_misses``/``_disk_invalidations``
            and the corrupt counter ``<counter>_corrupt`` — or ``None``
            for a kind the registry never loads (``lex``).
    """

    name: str
    suffix: str
    peek: Callable[[str], str | None]
    encode: Callable[[Any], str]
    decode: Callable[[str, Any], Any]
    counter: str | None

    @property
    def read_site(self) -> str:
        return f"artifact.read.{self.name}"

    @property
    def write_site(self) -> str:
        return f"artifact.write.{self.name}"


IR = ArtifactKind(
    "ir", ".ir.json", program_fingerprint,
    lambda program: program.to_json(),
    lambda text, _context=None: ParseProgram.from_json(text),
    "ir",
)
CLOSURES = ArtifactKind(
    "closures", ".closures.py", closure_fingerprint,
    lambda closure: closure.source,
    lambda text, program: ClosureProgram(program, text),
    "closure",
)
LEX = ArtifactKind(
    "lex", ".lex.json", lexicon_fingerprint,
    _encode_lexicon, _decode_lexicon, None,
)

#: Every artifact kind, in inventory order.
KINDS = (IR, CLOSURES, LEX)


class ArtifactMiss(Exception):
    """An artifact could not be served from disk; ``reason`` says why.

    ``quarantined`` lists the paths renamed aside on the way (empty for
    a plain miss or a failed rename).
    """

    def __init__(self, kind: ArtifactKind, reason: str, detail: str,
                 quarantined: tuple[str, ...] = ()) -> None:
        super().__init__(f"{kind.name} artifact {reason}: {detail}")
        self.reason = reason
        self.quarantined = quarantined


# -- the store ---------------------------------------------------------------


class ArtifactStore:
    """Reads and writes one fingerprint's artifacts under one directory.

    ``metrics``, ``faults`` and ``retry_policy`` are optional: the
    registry passes all three (counters, chaos sites, bounded retry of
    transient I/O errors); a worker passes none.
    """

    def __init__(self, directory: str | os.PathLike, digest: str,
                 metrics=None, faults=None, retry_policy=None) -> None:
        self.directory = Path(directory)
        self.digest = digest
        self._metrics = metrics
        self._faults = faults
        self._retry_policy = retry_policy

    def path(self, kind: ArtifactKind) -> Path:
        return self.directory / f"{self.digest}{kind.suffix}"

    def fetch(self, kind: ArtifactKind, context: Any = None) -> Any:
        """Read, validate and decode one artifact, or raise :class:`ArtifactMiss`.

        A file that cannot be read, embeds another fingerprint (stale),
        embeds none, or does not decode (corrupt) is quarantined first.
        """
        path = self.path(kind)
        try:
            text = self._guarded(kind.read_site, path.read_text)
        except FileNotFoundError:
            raise ArtifactMiss(kind, MISSING, str(path)) from None
        except Exception as error:
            raise self._quarantine(kind, UNREADABLE, repr(error)) from None
        embedded = kind.peek(text)
        if embedded != self.digest:
            raise self._quarantine(
                kind, STALE if embedded is not None else CORRUPT,
                f"embedded fingerprint {embedded!r}",
            )
        try:
            return kind.decode(text, context)
        except Exception as error:
            raise self._quarantine(
                kind, CORRUPT, f"does not decode: {error}"
            ) from None

    def load(self, kind: ArtifactKind, context: Any = None) -> Any:
        """:meth:`fetch`, counted: the value, or ``None`` on any miss."""
        try:
            value = self.fetch(kind, context)
        except ArtifactMiss as miss:
            self._count("quarantined", len(miss.quarantined))
            if kind.counter is not None:
                self._count(f"{kind.counter}_disk_misses")
                if miss.reason in (STALE, CORRUPT):
                    self._count(f"{kind.counter}_disk_invalidations")
                if miss.reason in (UNREADABLE, CORRUPT):
                    self._count(f"{kind.counter}_corrupt")
            return None
        if kind.counter is not None:
            self._count(f"{kind.counter}_disk_hits")
        return value

    def fresh(self, kind: ArtifactKind) -> bool:
        """Does the slot hold an artifact embedding this digest?"""
        try:
            text = self._guarded(kind.read_site, self.path(kind).read_text)
        except Exception:
            return False
        return kind.peek(text) == self.digest

    def save(self, kind: ArtifactKind, value: Any) -> None:
        """Publish one artifact atomically; failures are swallowed.

        The artifact cache is an optimization, never a failure: a write
        that still fails after retries leaves the slot as it was.
        """
        path = self.path(kind)
        text = kind.encode(value)

        def write() -> None:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
            tmp.write_text(text)
            os.replace(tmp, path)  # atomic publish: readers never see partials

        try:
            self._guarded(kind.write_site, write)
        except Exception:
            pass

    def describe(self, kind: ArtifactKind) -> dict:
        """Inventory row: path, existence, size, staleness, quarantine."""
        path = self.path(kind)
        info = describe_missing(kind)
        info["path"] = str(path)
        info["quarantined"] = path.with_name(
            path.name + QUARANTINE_SUFFIX
        ).exists()
        try:
            text = path.read_text()
        except OSError:
            return info
        info["exists"] = True
        info["size"] = len(text.encode())
        info["stale"] = kind.peek(text) != self.digest
        return info

    # -- internals -------------------------------------------------------------

    def _guarded(self, site: str, action: Callable[[], Any]) -> Any:
        """Run one I/O action behind its fault site, retrying transients.

        ``FileNotFoundError`` is never retried: a miss is a definitive
        answer.
        """

        def attempt():
            if self._faults is not None:
                self._faults.check(site)
            return action()

        if self._retry_policy is None:
            return attempt()
        return retry_call(
            attempt,
            self._retry_policy,
            on_retry=lambda _attempt, _error: self._count("retries"),
        )

    def _quarantine(self, kind: ArtifactKind, reason: str,
                    detail: str) -> ArtifactMiss:
        """Move a bad artifact aside so the rebuild starts from a clean slot.

        The ``.bad`` file is kept for post-mortems; a failed rename never
        blocks the rebuild (the fresh artifact overwrites in place).
        """
        path = self.path(kind)
        try:
            os.replace(path, path.with_name(path.name + QUARANTINE_SUFFIX))
        except OSError:
            return ArtifactMiss(kind, reason, detail)
        return ArtifactMiss(kind, reason, detail, (str(path),))

    def _count(self, counter: str, by: int = 1) -> None:
        if self._metrics is not None and by:
            self._metrics.incr(counter, by)


def describe_missing(kind: ArtifactKind) -> dict:
    """Inventory row for a kind with no cache directory to look in."""
    return {
        "kind": kind.name,
        "path": None,
        "exists": False,
        "size": 0,
        "stale": False,
        "quarantined": False,
    }
