"""Print the reference figures quoted in the README.

Usage (from the repository root)::

    python3 perfbench/reference.py

Each figure is a median or a rate over a few seconds of work on one
machine; they explain the workloads, they are not gated.
"""

from __future__ import annotations

import asyncio
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

from repro.service import AsyncParseService, ParserRegistry, ParseService  # noqa: E402
from repro.sql.dialects import dialect_features  # noqa: E402
from repro.sql.product_line import build_sql_product_line  # noqa: E402
from repro.workloads import generate_workload  # noqa: E402

import inputs  # noqa: E402

_now = time.perf_counter


def _median_ms(fn, texts) -> float:
    times = []
    for text in texts:
        start = _now()
        fn(text)
        times.append(_now() - start)
    return 1e3 * statistics.median(times)


def _rate(fn, texts, repeat: int = 10) -> float:
    start = _now()
    for _ in range(repeat):
        fn(texts)
    return repeat * len(texts) / (_now() - start)


def _all_ok(results) -> None:
    if not all(result.ok for result in results):
        raise RuntimeError("a batch query was not accepted")


def warm_parse(service: ParseService) -> None:
    for dialect in ("tinysql", "full"):
        features = dialect_features(dialect)
        texts = generate_workload(dialect, 200, seed=7)
        service.parse(texts[0], features)
        parser = service.registry.get(features).thread_compiled_parser(
            service.registry.cache_dir)
        served = _median_ms(lambda t: service.parse(t, features), texts)
        raw = _median_ms(parser.parse_with_diagnostics, texts)
        print(f"warm parse {dialect:8s} {served:6.2f} ms   raw {raw:6.3f} ms")


def batches(artifact_dir: Path) -> None:
    features = dialect_features("full")
    texts = generate_workload("full", 512, seed=7)
    for label, kwargs, gc_off in (
        ("inline, 1 worker", {"max_workers": 1}, False),
        ("threads, 2 workers", {"max_workers": 2}, False),
        ("processes, 2 workers", {"max_workers": 2, "executor": "process"}, False),
        ("inline, 1 worker, GC off", {"max_workers": 1}, True),
    ):
        # a bound above the batch size: the default sheds part of the batch
        with ParseService(cache_dir=artifact_dir, max_queue=2 * len(texts),
                          **kwargs) as service:
            service.parse_many(texts[:4], features)  # warm, pools started
            if gc_off:
                gc.disable()
            try:
                rate = _rate(lambda batch: _all_ok(service.parse_many(batch, features)),
                             texts)
            finally:
                gc.enable()
        print(f"parse_many full, {label:24s} {rate:7.0f} q/s")


def sync_vs_async(service: ParseService) -> None:
    features = {d: dialect_features(d) for d in inputs.PRESETS}
    requests = [(d, t) for d in inputs.PRESETS for t in generate_workload(d, 60, seed=7)]
    for dialect in inputs.PRESETS:
        service.parse(inputs.first_request(dialect), features[dialect])
    start = _now()
    for dialect, text in requests:
        service.parse(text, features[dialect])
    sync_rate = len(requests) / (_now() - start)

    async def client(front):
        for dialect, text in requests:
            await front.parse(text, features[dialect])

    async def run():
        front = AsyncParseService(service)
        try:
            start = _now()
            await client(front)
            return len(requests) / (_now() - start)
        finally:
            await front.close()

    async_rate = asyncio.run(run())
    print(f"one client over the presets: sync {sync_rate:5.0f} req/s, "
          f"async {async_rate:5.0f} req/s")


def cold_readiness(artifact_dir: Path) -> None:
    line = build_sql_product_line()
    registry = ParserRegistry(line, capacity=1, cache_dir=artifact_dir)
    service = ParseService(registry=registry, max_workers=2)
    stream = inputs.TailorStream(line, seed=7)
    selections = []
    while len(selections) < 24:
        base = inputs.TAILOR_BASES[len(selections) % len(inputs.TAILOR_BASES)]
        added, config, undefined = stream.draw(base)
        if not undefined and not isinstance(config, Exception):
            selections.append((base, dialect_features(base) + list(added)))
    for label in ("cold", "revisited from disk"):
        times = []
        for base, features in selections:
            start = _now()
            service.parse(inputs.first_request(base), features)
            times.append(_now() - start)
        print(f"readiness p50, {label:20s} {1e3 * statistics.median(times):6.1f} ms")
    service.close()


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as directory:
        artifact_dir = Path(directory)
        with ParseService(cache_dir=artifact_dir, max_workers=2) as service:
            warm_parse(service)
            sync_vs_async(service)
        batches(artifact_dir)
        (artifact_dir / "tailor").mkdir()
        cold_readiness(artifact_dir / "tailor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
