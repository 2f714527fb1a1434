"""The repo benchmark: three workloads, end-to-end metrics, and a traced
per-layer split.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 25 --trace 1

Run it from the root of a checkout: it imports the program from
``src/`` and keeps its scratch files in ``.perfbench_work/`` (removed
on exit) and the traced run's spans in ``.perfbench_out/``.

Workloads (all host time unless a name says cycles; the modelled
caches start empty in every cell):

* ``paper-cold`` -- ``run_paper`` of the paper's 128 cells into a fresh
  SQLite store, serially, then ``build_paper``.  The job users wait on;
  its cells share traces and L1 streams, so engine speed and reuse
  across cells dominate.
* ``sweep-distinct`` -- ``run_sweep`` with no store over cells that
  share no (workload, seed, scale, active cores).  No reuse of any
  kind, and per-cell construction and trace generation do much of the
  work: a reuse optimisation must show no change here.
* ``serve-mixed`` -- ``repro serve --jobs 2`` (ephemeral port) over a
  store pre-populated with a working set; a closed loop of two client
  threads, every fiftieth request per client a new cell.  The only
  workload where HTTP, store reads and the executor do most of the
  work.

End-to-end metrics, with their meaning on each workload:

* ``wall_s`` -- sweeps: one pass, from the first cell submitted to the
  last result verified (paper-cold includes ``build_paper``); median
  over the run's passes.  serve-mixed: the whole request schedule.
* ``setup_s`` -- everything before the timed phase (fresh-interpreter
  imports, input generation, store creation; serve-mixed: working-set
  population and server start), repeated and reported as the median.
* ``peak_rss_mb`` -- peak resident memory of the process doing the work
  (this process for sweeps, the server for serve-mixed).
* ``hit_p50_ms``/``hit_p99_ms`` -- a request answered without
  simulating.  serve-mixed: client latency of a store hit.  Sweeps:
  re-requesting a computed cell through the memoized
  ``run_scenario(cell, store=...)`` path (the warm re-run); hits come
  in short bursts between computed cells, and hit_p50_ms is the median
  of each burst averaged over the run's bursts (see :class:`HitSampler`).
* ``miss_p50_ms``/``miss_p90_ms`` -- a request that computes a new
  cell.  serve-mixed: client latency of a miss.  Sweeps: the host time
  of one cell inside the sweep, its trace lookup or generation
  included.
* ``serve_rps`` -- completed requests per second of the timed phase
  (sweeps: cells per second of a pass).
* ``fail_ratio`` -- failed or wrong operations over operations
  attempted; printed, and carried in the result line as
  ``failed``/``attempted``.

``--trace 1`` runs the timed phase untraced, then one more traced
pass and reports per-layer metrics instead; see ``tracer.py`` for what
is wrapped.  serve-mixed's work happens in the server process, so it
runs one more request schedule untraced and takes the split from the
server's ``/metrics`` instruments.

Outputs are checked at every seed (store round-trips, the legacy
scheduler, direct runs, repeated passes).  At the reference seed every
computed cell must also match ``reference_digests.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import cells as C  # noqa: E402 - sibling modules of this script
import stats  # noqa: E402
from tracer import Tracer, install  # noqa: E402

WORKLOADS = ("paper-cold", "sweep-distinct", "serve-mixed")

#: Setups per run; setup_s is their median.
SETUPS = 3
#: Hits re-requested in a sweep run, so hit_p99_ms has >= 10 beyond it.
HIT_SAMPLES = 3000
#: Cells re-simulated with the legacy scheduler (sweeps) or in-process
#: (serve-mixed misses) to check results at any seed.
SAMPLE_CHECKS = 3

#: The paper's published numbers the fidelity line prints beside the
#: reproduced ones (fig 6 MoT reductions are in repro.paper.build).
PAPER_EDP_HEADLINE = (77.0, 48.0)

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "hit_p50_ms": "ms", "hit_p99_ms": "ms",
    "miss_p50_ms": "ms", "miss_p90_ms": "ms", "serve_rps": "req/s",
}
#: Exact simulated counts (sums over the run's computed cells); they
#: must repeat bit for bit across runs and commits.
COUNTS = ("sim.cycles", "sim.l1.accesses", "sim.l1.misses", "mem.l2.hits",
          "mem.l2.misses", "mem.dram.accesses", "noc.queueing_cycles")
_REPORT_FIELDS = ("execution_cycles", "l1_accesses", "l1_misses", "l2_hits",
                  "l2_misses", "dram_accesses", "interconnect_queueing_cycles")
PER_LAYER = {
    "workloads.trace_gen.calls": "count", "workloads.trace_gen.s": "s",
    "scenario.build_cluster.calls": "count", "scenario.build_cluster.s": "s",
    "scenario.fingerprint.s": "s",
    "sim.run.s": "s", "sim.l1.accesses": "count", "sim.l1.misses": "count",
    "sim.l1.s": "s", "sim.finish_miss.calls": "count",
    "sim.finish_miss.self_s": "s", "sim.scheduler.self_s": "s",
    "sim.host_ns_per_ref": "ns/ref", "sim.cycles": "cycles",
    "noc.access.calls": "count", "noc.access.s": "s",
    "noc.queueing_cycles": "cycles",
    "mem.l2.calls": "count", "mem.l2.s": "s", "mem.l2.hits": "count",
    "mem.l2.misses": "count", "mem.missbus.calls": "count",
    "mem.missbus.s": "s", "mem.dram.calls": "count", "mem.dram.s": "s",
    "mem.dram.accesses": "count",
    "analysis.energy.s": "s",
    "session.to_dict.s": "s", "session.from_dict.s": "s",
    "store.get.calls": "count", "store.get.s": "s",
    "store.put.calls": "count", "store.put.s": "s",
    "service.request.p50_ms": "ms", "service.http_overhead_ms": "ms",
    "service.queue_wait.p50_ms": "ms", "service.batch_size.mean": "cells",
    "paper.run.s": "s", "paper.build.s": "s",
    "reuse.trace_share": "ratio", "reuse.l1_stream_share": "ratio",
    "tracing.overhead_ratio": "ratio",
}
#: Layers read off the tracer: metric prefix -> (tracer layer, what).
_TRACED = {
    "workloads.trace_gen": ("workloads.trace_gen", ("calls", "s")),
    "scenario.build_cluster": ("scenario.build_cluster", ("calls", "s")),
    "scenario.fingerprint": ("scenario.fingerprint", ("s",)),
    "sim.run": ("sim.run", ("s",)),
    "sim.l1": ("sim.l1", ("s",)),
    "sim.finish_miss": ("sim.finish_miss", ("calls", "self_s")),
    "sim.scheduler": ("sim.run", ("self_s",)),
    "noc.access": ("noc.access", ("calls", "s")),
    "mem.l2": ("mem.l2", ("calls", "s")),
    "mem.missbus": ("mem.missbus", ("calls", "s")),
    "mem.dram": ("mem.dram", ("calls", "s")),
    "analysis.energy": ("analysis.energy", ("s",)),
    "session.to_dict": ("session.to_dict", ("s",)),
    "session.from_dict": ("session.from_dict", ("s",)),
    "store.get": ("store.get", ("calls", "s")),
    "store.put": ("store.put", ("calls", "s")),
    "paper.run": ("paper.run", ("s",)),
    "paper.build": ("paper.build", ("s",)),
}


class BenchError(Exception):
    """The benchmark cannot run here (not a fault of the program)."""


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------
class Run:
    """What one run measured and checked."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.end_to_end: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.counts: Dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def add_counts(self, reports) -> None:
        """Sum SimReports (objects or payload dicts) into the counts."""
        for report in reports:
            get = report.get if isinstance(report, dict) else \
                lambda key, r=report: getattr(r, key)
            for name, key in zip(COUNTS, _REPORT_FIELDS):
                self.counts[name] += get(key)

    def latencies(self, kind: str, seconds: List[float],
                  quantiles=(0.5,)) -> None:
        """Record ``<kind>_p<q>_ms`` from samples, noting the count."""
        ordered = sorted(seconds)
        parts = []
        for q in quantiles:
            value, beyond = stats.nearest_rank(ordered, q)
            name = f"{kind}_p{round(q * 100)}_ms"
            self.end_to_end[name] = value * 1e3
            parts.append(f"{name}: {beyond} beyond")
        supported = stats.highest_supported(len(ordered))
        self.notes.append(
            f"{kind} samples: {len(ordered)} ({', '.join(parts)}; highest "
            f"percentile with >= {stats.MIN_BEYOND} beyond: "
            f"p{supported * 100:g})")


def _engine_seconds() -> float:
    """Host time the in-process engine.simulate spans have recorded."""
    from repro.obs import default_registry

    snapshot = default_registry().snapshot(prefix="repro_engine_simulate")
    return snapshot.get("repro_engine_simulate_seconds", {}).get("sum", 0.0)


#: The fingerprint and serializer the benchmark's own checks call, bound
#: before any tracer is installed (see :func:`main`), so the traced
#: layers count only the program's own calls.
_UNTRACED: Dict[str, object] = {}


def _bind_untraced() -> None:
    from repro.scenario import scenario_fingerprint
    from repro.sim.session import ScenarioResult

    _UNTRACED["fingerprint"] = scenario_fingerprint
    _UNTRACED["to_dict"] = ScenarioResult.to_dict


def _fingerprint(scenario) -> str:
    return _UNTRACED["fingerprint"](scenario)


def _digest(result) -> str:
    """Digest of a ScenarioResult's canonical payload."""
    return C.result_digest(_UNTRACED["to_dict"](result))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _src_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh_import(modules: str) -> None:
    """Import ``modules`` in a fresh interpreter, as a user's run does."""
    subprocess.run([sys.executable, "-c", f"import {modules}"],
                   cwd=ROOT, env=_src_env(), check=True, timeout=120)


class Reference:
    """The checked-in digests of a workload's cells at the reference
    seed.  At that seed every computed cell must be there and match;
    at any other seed the cells differ and none is looked up."""

    def __init__(self, run: Run, seconds: int) -> None:
        path = HERE / "reference_digests.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        self.run = run
        self.digests: Dict[str, str] = recorded.get(run.workload, {})
        self.active = run.seed == C.REFERENCE_SEED
        self.checked = 0
        if self.active:
            run.check(recorded.get("seconds") == seconds,
                      f"reference digests were recorded for --seconds "
                      f"{recorded.get('seconds')}, not {seconds}")

    def check(self, fingerprint: str, digest: str, label: str) -> None:
        if not self.active:
            return
        expected = self.digests.get(fingerprint)
        self.checked += 1
        self.run.check(expected == digest,
                       f"{label}: digest {digest[:12]} != reference "
                       f"{str(expected)[:12]}")

    def note(self) -> None:
        self.run.notes.append(
            f"reference digests: {self.checked} cells checked"
            + ("" if self.active else
               f" (only seed {C.REFERENCE_SEED} is recorded)"))


class HitSampler:
    """Warm re-requests interleaved with a sweep, one burst after each
    computed cell, so hit samples spread over the whole run instead of
    landing in one short window of a host whose speed drifts.

    Each hit re-requests an earlier cell through the memoized
    ``run_scenario(cell, store=...)`` path and must come back from the
    store bit-identical to what was computed.  :attr:`spent` is the
    host time the bursts took, checks included; passes subtract it
    from their wall time.

    A burst lasts a few milliseconds, so all its hits see the host at
    one speed, while a shared host alternates between fast and slow
    periods of a second or so (~40% apart for fixed work).  The median
    of a whole run's hits is a median of that two-speed mixture and
    jumps between the two speeds as the share of fast time shifts from
    run to run; :meth:`p50` instead takes each burst's median and
    averages them, which moves with the host only as much as a mean.
    """

    def __init__(self, run: Run, per_cell: int) -> None:
        from repro.sim.session import run_scenario

        self._run_scenario = run_scenario  # not the timed hook's wrapper
        self.run = run
        self.per_cell = per_cell
        self.store = None
        self._hits0 = 0
        self.pool: list = []  # (cell, digest)
        self.latencies: List[float] = []
        self.burst_medians: List[float] = []
        self.spent = 0.0
        self._next = 0
        self._served = 0

    def serve_from(self, store, cells_list, digests: Dict[str, str],
                   extend: bool = False) -> None:
        """Draw later hits from ``cells_list`` (all stored in ``store``)."""
        self._check_store()
        entries = [(cell, digests[_fingerprint(cell)])
                   for cell in cells_list]
        self.pool = self.pool + entries if extend else entries
        self.store = store
        self._hits0 = store.hits
        self._served = 0

    def _check_store(self) -> None:
        if self.store is not None:
            self.run.check(self.store.hits - self._hits0 == self._served,
                           "a warm re-request missed the store")

    def __call__(self) -> None:
        if not self.pool:
            return
        begin = time.perf_counter()
        burst = []
        for _ in range(self.per_cell):
            cell, digest = self.pool[self._next % len(self.pool)]
            self._next += 1
            start = time.perf_counter()
            result = self._run_scenario(cell, store=self.store)
            burst.append(time.perf_counter() - start)
            self._served += 1
            self.run.attempted += 1
            self.run.check(_digest(result) == digest,
                           f"{cell.label()}: store round-trip changed it")
        self.latencies += burst
        self.burst_medians.append(statistics.median(burst))
        self.spent += time.perf_counter() - begin

    def p50(self) -> float:
        """Each burst's median hit seconds, averaged over the bursts."""
        return statistics.fmean(self.burst_medians)

    def close(self) -> None:
        self._check_store()
        self.store = None


@contextlib.contextmanager
def _timed_cells(sink: list, after_cell=None):
    """Time every cell a sweep computes: ``(result, seconds)``.

    A serial ``run_sweep`` looks each cell's traces up (generating them
    on a miss) in ``_cached_traces`` before it enters ``run_scenario``,
    so a cell's seconds are both.  ``after_cell`` runs after each cell,
    outside its timing."""
    import repro.sim.session as session

    run_scenario, cached_traces = session.run_scenario, session._cached_traces
    traces_s = [0.0]

    def timed_traces(*args, **kwargs):
        start = time.perf_counter()
        try:
            return cached_traces(*args, **kwargs)
        finally:
            traces_s[0] += time.perf_counter() - start

    def timed(scenario, *args, **kwargs):
        start = time.perf_counter()
        result = run_scenario(scenario, *args, **kwargs)
        sink.append((result, time.perf_counter() - start + traces_s[0]))
        traces_s[0] = 0.0
        if after_cell is not None:
            after_cell()
        return result

    session.run_scenario, session._cached_traces = timed, timed_traces
    try:
        yield
    finally:
        session.run_scenario, session._cached_traces = run_scenario, cached_traces


# ---------------------------------------------------------------------------
# Sweep workloads (paper-cold, sweep-distinct)
# ---------------------------------------------------------------------------
def _verify_computed(sink, reference: Reference) -> Dict[str, str]:
    """Digest every computed result and check it against the reference."""
    digests = {}
    for result, _seconds in sink:
        fingerprint = _fingerprint(result.scenario)
        digests[fingerprint] = _digest(result)
        reference.check(fingerprint, digests[fingerprint],
                        result.scenario.label())
    return digests


def _legacy_sample(run: Run, results, stream: str) -> None:
    """Re-simulate a seeded sample with the legacy scheduler."""
    from repro.sim.session import run_scenario

    rng = C.seeded_rng(run.seed, stream)
    for result in rng.sample(results, min(SAMPLE_CHECKS, len(results))):
        legacy = run_scenario(replace(result.scenario, engine_mode="legacy"))
        run.attempted += 1
        run.check(legacy.report == result.report
                  and legacy.energy == result.energy,
                  f"{result.scenario.label()}: legacy scheduler disagrees")


def _traced_layers(run: Run, tracer: Tracer) -> None:
    for prefix, (layer, whats) in _TRACED.items():
        for what in whats:
            if what == "calls":
                value = tracer.count(layer)
            else:
                value = tracer.seconds(layer, self_time=(what == "self_s"))
            run.layers[f"{prefix}.{what}"] = value


def _sweep_passes(run: Run, passes: int, cells_per_pass: int, one_pass,
                  after_pass) -> List:
    """Run the timed passes with hits interleaved; record the end-to-end
    metrics.  ``one_pass(index, sink, after_cell)`` returns ``(store or
    results, digests, wall)``; ``after_pass`` hands the pass's stored
    cells to the sampler.  Returns the first pass's ``(result, s)``."""
    # Pass 0 has nothing stored to re-request yet.
    per_cell = math.ceil(HIT_SAMPLES / (max(1, passes - 1) * cells_per_pass))
    sampler = HitSampler(run, per_cell)
    walls, miss_seconds, engine_s, refs, first = [], [], 0.0, 0, None
    for index in range(passes):
        sink = []
        engine0, spent0 = _engine_seconds(), sampler.spent
        out, digests, wall = one_pass(index, sink, sampler)
        hit_spent = sampler.spent - spent0
        # wall_s is the sweep's own time: the hit bursts are subtracted.
        walls.append(wall - hit_spent)
        engine_s += _engine_seconds() - engine0
        miss_seconds += [seconds for _result, seconds in sink]
        refs += sum(result.report.l1_accesses for result, _s in sink)
        if first is None:
            first = sink
        after_pass(sampler, out, sink, digests)
    # Only a one-pass run ends short: its pass had nothing stored yet.
    while len(sampler.latencies) < HIT_SAMPLES:
        sampler()
    sampler.close()
    run.end_to_end["wall_s"] = statistics.median(walls)
    run.end_to_end["serve_rps"] = cells_per_pass / run.end_to_end["wall_s"]
    run.end_to_end["peak_rss_mb"] = _peak_rss_mb()
    run.latencies("hit", sampler.latencies, (0.99,))
    run.end_to_end["hit_p50_ms"] = sampler.p50() * 1e3
    run.notes.append(f"hit_p50_ms: median of each burst of "
                     f"{sampler.per_cell} hits, averaged over "
                     f"{len(sampler.burst_medians)} bursts")
    run.latencies("miss", miss_seconds, (0.5, 0.9))
    run.layers["sim.host_ns_per_ref"] = engine_s * 1e9 / refs if refs else 0.0
    run.notes.append(f"passes: {passes} x {cells_per_pass} cells, pass "
                     f"wall_s: {', '.join(f'{w:.3f}' for w in walls)}")
    return first


def _traced_pass(run: Run, one_pass, index: int) -> None:
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        _out, _digests, wall = one_pass(index, [], None)
    finally:
        uninstall()
    _traced_layers(run, tracer)
    run.layers["tracing.overhead_ratio"] = wall / run.end_to_end["wall_s"]
    _write_spans(tracer, run)


def paper_cold(args, run: Run, work: Path) -> None:
    import repro.paper as paper
    from repro.store import SqliteStore

    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        _fresh_import("repro.paper, repro.store")
        manifest, cells_list = C.paper_cells(args.seed)
        setups.append(time.perf_counter() - start)
    run.end_to_end["setup_s"] = statistics.median(setups)
    reference = Reference(run, args.seconds)
    passes = C.paper_passes(args.seconds)
    run.layers["reuse.trace_share"] = C.reuse_share(cells_list, C.trace_key)
    run.layers["reuse.l1_stream_share"] = C.reuse_share(cells_list,
                                                        C.l1_stream_key)

    def one_pass(index: int, sink: list, after_cell):
        store = SqliteStore(work / f"paper-{index}.sqlite")
        start = time.perf_counter()
        with _timed_cells(sink, after_cell):
            computed = paper.run_paper(manifest, store, seed=args.seed)
        built = paper.build_paper(manifest, store, seed=args.seed,
                                  out_dir=work / f"artifacts-{index}")
        digests = _verify_computed(sink, reference)
        wall = time.perf_counter() - start
        run.check(computed.computed == len(cells_list),
                  f"run_paper computed {computed.computed} cells, "
                  f"expected {len(cells_list)}")
        run.check(built.misses == 0, f"build_paper missed {built.misses}")
        run.attempted += len(sink)
        return store, digests, wall

    stores, first_digests = [], {}

    def after_pass(sampler, store, sink, digests):
        if not first_digests:
            first_digests.update(digests)
            run.add_counts(result.report for result, _ in sink)
        else:
            run.check(digests == first_digests,
                      "a repeated pass changed results")
        sampler.serve_from(store, cells_list, digests)
        stores.append(store)

    try:
        first = _sweep_passes(run, passes, len(cells_list), one_pass,
                              after_pass)
    finally:
        for store in stores:
            store.close()
    results = [result for result, _ in first]
    _legacy_sample(run, results, "paper/legacy")
    run.notes.append(_fidelity(manifest, args.seed, results))
    if args.trace:
        _traced_pass(run, one_pass, passes)
    reference.note()


def _fidelity(manifest, seed: int, results) -> str:
    """Reproduced fig 6 MoT reductions and EDP headline beside the
    published values (informational, not gated)."""
    from repro.analysis.edp import best_state_stats
    from repro.analysis.experiments import (fig6_from_results,
                                            power_sweep_from_results)
    from repro.paper.build import _FIG6_PAPER_REDUCTIONS
    from repro.scenario import scenario_fingerprint

    by_fp = {scenario_fingerprint(r.scenario): r for r in results}
    resolved = {a.name: a for a in manifest.resolve(seed=seed)}
    fig6 = resolved["fig6"]
    fig7 = resolved["fig7"]
    f6 = fig6_from_results(fig6.benchmarks,
                           [by_fp[fp] for fp in fig6.fingerprints])
    f7 = power_sweep_from_results(fig7.benchmarks, fig7.dram,
                                  [by_fp[fp] for fp in fig7.fingerprints])
    best_max, best_mean = best_state_stats(f7.comparisons())
    mot = ", ".join(f"{f6.mot_reduction_vs(base):.2f}% vs {base} "
                    f"(paper {published:.2f}%)"
                    for base, published in _FIG6_PAPER_REDUCTIONS)
    return (f"fidelity (scale {C.PAPER_SCALE:g}, seed {seed}; not gated): "
            f"fig6 MoT execution-time reduction {mot}; EDP headline "
            f"{best_max:.0f}% max / {best_mean:.0f}% mean (paper "
            f"{PAPER_EDP_HEADLINE[0]:.0f}% / {PAPER_EDP_HEADLINE[1]:.0f}%)")


def sweep_distinct(args, run: Run, work: Path) -> None:
    from repro.sim.session import run_sweep
    from repro.store import SqliteStore

    passes = C.sweep_passes(args.seconds)
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        _fresh_import("repro.sim, repro.store")
        cells_list = C.distinct_cells(args.seed, 0, passes * C.BLOCK, "sweep")
        setups.append(time.perf_counter() - start)
    run.end_to_end["setup_s"] = statistics.median(setups)
    reference = Reference(run, args.seconds)
    run.layers["reuse.trace_share"] = C.reuse_share(cells_list, C.trace_key)
    run.layers["reuse.l1_stream_share"] = C.reuse_share(cells_list,
                                                        C.l1_stream_key)

    def one_pass(index: int, sink: list, after_cell):
        cells_pass = cells_list[index * C.BLOCK:(index + 1) * C.BLOCK]
        start = time.perf_counter()
        with _timed_cells(sink, after_cell):
            results = run_sweep(cells_pass)
        digests = _verify_computed(sink, reference)
        wall = time.perf_counter() - start
        run.check(len(results) == len(cells_pass), "run_sweep lost cells")
        run.attempted += len(sink)
        return results, digests, wall

    # Store round-trip: each pass's results are persisted (untimed) and
    # re-requested while later passes compute.
    store = SqliteStore(work / "roundtrip.sqlite")
    results = []

    def after_pass(sampler, pass_results, _sink, digests):
        for result in pass_results:
            store.save(result)
        results.extend(pass_results)
        sampler.serve_from(store, [r.scenario for r in pass_results],
                           digests, extend=True)

    try:
        _sweep_passes(run, passes, C.BLOCK, one_pass, after_pass)
    finally:
        store.close()
    run.add_counts(result.report for result in results)
    _legacy_sample(run, results, "sweep/legacy")
    if args.trace:
        _traced_pass(run, one_pass, 0)
    reference.note()


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------
_LIVE_SERVERS: List["ServerProcess"] = []
_URL_RE = re.compile(r"serving \S+ on (http://\S+) ")
#: Misses compute in the executor's worker pool, one worker per core of
#: the reference host.  With the default in-thread compute, a hit waits
#: for the GIL behind the engine and its p50 flips between ~1 ms and
#: ~5 ms from one run of the same code to the next (thread placement),
#: too unsteady to gate on.
SERVE_ARGS = ("--jobs", "2")


def _die_with_parent() -> None:  # pragma: no cover - runs in the child
    """Ask Linux to SIGTERM the server if this process dies first, so an
    aborted run never leaves a server burning CPU."""
    if _PRCTL is not None:
        _PRCTL(1, signal.SIGTERM)  # PR_SET_PDEATHSIG


def _load_prctl():
    try:
        import ctypes
        import ctypes.util

        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6",
                           use_errno=True)
        return libc.prctl
    except (OSError, AttributeError):
        return None


_PRCTL = _load_prctl() if sys.platform.startswith("linux") else None


class ServerProcess:
    """``repro serve`` on an ephemeral port, reaped on every exit path."""

    def __init__(self, store_path: Path, log_path: Path) -> None:
        self.store_path = store_path
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self, timeout: float = 60.0) -> None:
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--store", str(self.store_path), "--port", "0",
                 *SERVE_ARGS],
                cwd=ROOT, env=_src_env(), stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                start_new_session=True, preexec_fn=_die_with_parent,
            )
        _LIVE_SERVERS.append(self)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _URL_RE.search(self.log_path.read_text())
            if match:
                self.url = match.group(1)
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise BenchError(f"server did not start:\n{self.log_path.read_text()}")

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server and its worker processes (Linux)."""
        pids, total_kb = [self.proc.pid], 0
        for stat in Path("/proc").glob("[0-9]*/stat"):
            with contextlib.suppress(OSError, ValueError, IndexError):
                # Field 4 (after the parenthesised command) is the ppid.
                if int(stat.read_text().rsplit(")", 1)[1].split()[1]) \
                        == self.proc.pid:
                    pids.append(int(stat.parent.name))
        for pid in pids:
            with contextlib.suppress(OSError):
                status = Path(f"/proc/{pid}/status").read_text()
                match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
                total_kb += int(match.group(1)) if match else 0
        if total_kb == 0:
            raise BenchError("no VmHWM in /proc status")
        return total_kb / 1024.0

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()  # graceful drain
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        # Anything the server left in its session goes with it.
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)
        self.proc = None
        if self in _LIVE_SERVERS:
            _LIVE_SERVERS.remove(self)


def _stop_all_servers() -> None:
    for server in list(_LIVE_SERVERS):
        server.stop()


class Reply(NamedTuple):
    """One request's outcome, digested in its lane: a run holds tens of
    thousands, too many to keep whole."""

    request: "C.Request"
    seconds: float
    fingerprint: str
    digest: str
    report: Optional[dict]  # misses only
    error: Optional[str]


def _drive(url: str, lanes, specs_of) -> tuple:
    """Closed loop: one thread per lane, each waiting for its reply.

    Returns ``(wall seconds, [Reply])``.
    """
    from repro.errors import ServiceError
    from repro.service import ServiceClient
    from repro.service.client import RetryPolicy

    outcomes: List[list] = [[] for _ in lanes]
    barrier = threading.Barrier(len(lanes) + 1)

    def lane(index: int) -> None:
        client = ServiceClient(url, timeout=120.0,
                               retry=RetryPolicy(attempts=1))
        out = outcomes[index]
        try:
            client.healthz()  # open the keep-alive connection first
            barrier.wait()
            for request in lanes[index]:
                spec = specs_of(request)
                start = time.perf_counter()
                try:
                    response = client.post_scenario(spec)
                    seconds = time.perf_counter() - start
                    result = response["result"]
                    out.append(Reply(
                        request, seconds, response["fingerprint"],
                        C.result_digest(result),
                        result["report"] if request.miss else None, None))
                except (ServiceError, KeyError, TypeError) as exc:
                    out.append(Reply(request, time.perf_counter() - start,
                                     "", "", None, repr(exc)))
        finally:
            client.close()

    threads = [threading.Thread(target=lane, args=(i,), daemon=True)
               for i in range(len(lanes))]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return wall, [item for out in outcomes for item in out]


def _server_layers(run: Run, before: dict, after: dict,
                   client_mean_s: float) -> float:
    """The server-side split, from its own /metrics instruments; returns
    the executor's batch seconds.  The engine runs in the executor's
    worker processes, whose engine spans never reach /metrics, so the
    batch time is the engine-bearing time the server can report."""
    def delta(name):
        return stats.histogram_delta(before.get(name), after.get(name))

    request = delta("repro_service_request_seconds")
    run.layers["service.request.p50_ms"] = \
        stats.histogram_quantile(request, 0.5) * 1e3
    server_mean = request["sum"] / request["count"] if request["count"] else 0
    run.layers["service.http_overhead_ms"] = (client_mean_s - server_mean) * 1e3
    run.layers["service.queue_wait.p50_ms"] = stats.histogram_quantile(
        delta("repro_queue_wait_seconds"), 0.5) * 1e3
    batch = delta("repro_executor_batch_size")
    run.layers["service.batch_size.mean"] = \
        batch["sum"] / batch["count"] if batch["count"] else 0.0
    for layer, name in (("store.get", "repro_store_get_seconds"),
                        ("store.put", "repro_store_put_seconds")):
        d = delta(name)
        run.layers[f"{layer}.calls"] = d["count"]
        run.layers[f"{layer}.s"] = d["sum"]
    return delta("repro_executor_batch_seconds")["sum"]


def serve_mixed(args, run: Run, work: Path) -> None:
    from repro.service import ServiceClient
    from repro.sim.session import run_scenario, run_sweep
    from repro.store import SqliteStore

    requests = C.serve_requests(args.seconds)
    lanes = C.serve_schedule(args.seed, requests, phase=0)
    reference = Reference(run, args.seconds)

    setups, server, population = [], None, None
    try:
        for index in range(SETUPS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            working = C.working_set(args.seed)
            miss_cells = C.serve_miss_cells(args.seed, lanes)
            warmup = [{"scenario": cell.to_dict()} for cell in
                      C.distinct_cells(args.seed, 0, C.CLIENTS, "serve/warmup")]
            store_path = work / f"serve-{index}.sqlite"
            store = SqliteStore(store_path)
            population = run_sweep(working, store=store)
            store.close()
            server = ServerProcess(store_path, work / f"serve-{index}.log")
            server.start()
            # Spawn every compute worker now, not on the first timed miss.
            _, warm = _drive(server.url, [[C.Request(True, i)]
                                          for i in range(C.CLIENTS)],
                             lambda r: warmup[r.index])
            if any(reply.error for reply in warm):
                raise BenchError(f"warm-up request failed: {warm}")
            setups.append(time.perf_counter() - start)
        run.end_to_end["setup_s"] = statistics.median(setups)
        specs = {("hit", i): {"scenario": cell.to_dict()}
                 for i, cell in enumerate(working)}
        specs.update({("miss", i): {"scenario": cell.to_dict()}
                      for i, cell in miss_cells.items()})

        def spec_of(request):
            return specs[("miss" if request.miss else "hit", request.index)]

        wall, outcomes = _drive(server.url, lanes, spec_of)
        run.end_to_end["peak_rss_mb"] = server.peak_rss_mb()
        split = None
        if args.trace:
            # The server-side split: one more schedule, new miss cells,
            # read off the server's /metrics before and after.
            lanes1 = C.serve_schedule(args.seed, requests, phase=1)
            for index, cell in C.serve_miss_cells(args.seed, lanes1).items():
                miss_cells[index] = cell
                specs[("miss", index)] = {"scenario": cell.to_dict()}
            with ServiceClient(server.url) as client:
                before = client.metrics()
                _wall1, outcomes1 = _drive(server.url, lanes1, spec_of)
                after = client.metrics()
            split = (lanes1, outcomes1, before, after)
    finally:
        _stop_all_servers()

    working_digests = [_digest(result) for result in population]
    for cell, digest in zip(working, working_digests):
        reference.check(_fingerprint(cell), digest,
                        f"{cell.label()} (working set)")

    def check_replies(schedule, replies):
        """Check every reply; returns hit and miss seconds and the
        computed replies by miss index."""
        run.check(len(replies) == sum(map(len, schedule)),
                  f"{len(replies)} replies to "
                  f"{sum(map(len, schedule))} requests")
        hits, misses, computed = [], [], {}
        for reply in replies:
            run.attempted += 1
            if reply.error is not None:
                run.fail(f"request failed: {reply.error}")
                continue
            request = reply.request
            cell = miss_cells[request.index] if request.miss \
                else working[request.index]
            if request.miss:
                misses.append(reply.seconds)
                computed[request.index] = reply
                reference.check(_fingerprint(cell), reply.digest,
                                f"{cell.label()} (miss)")
            else:
                hits.append(reply.seconds)
                run.check(reply.digest == working_digests[request.index],
                          f"hit on {cell.label()} served a different result")
            run.check(reply.fingerprint == _fingerprint(cell),
                      f"{cell.label()}: wrong fingerprint in the reply")
        return hits, misses, computed

    hits, misses, computed = check_replies(lanes, outcomes)
    rng = C.seeded_rng(args.seed, "serve/direct")
    for index in rng.sample(sorted(computed), min(SAMPLE_CHECKS, len(computed))):
        direct = run_scenario(miss_cells[index])
        run.attempted += 1
        run.check(_digest(direct) == computed[index].digest,
                  f"{miss_cells[index].label()}: served miss != direct run")
    run.add_counts(reply.report for reply in computed.values())

    run.end_to_end["wall_s"] = wall
    run.end_to_end["serve_rps"] = (len(hits) + len(misses)) / wall
    run.latencies("hit", hits, (0.5, 0.99))
    run.latencies("miss", misses, (0.5, 0.9))
    missed = [miss_cells[i] for i in sorted(computed)]
    run.layers["reuse.trace_share"] = C.reuse_share(missed, C.trace_key)
    run.layers["reuse.l1_stream_share"] = C.reuse_share(missed, C.l1_stream_key)
    run.notes.append(f"requests: {len(outcomes)} ({len(hits)} hits, "
                     f"{len(misses)} misses) from {C.CLIENTS} closed-loop "
                     f"clients, working set {C.WORKING_SET} cells")

    if split is not None:
        lanes1, outcomes1, before, after = split
        _hits1, _misses1, computed1 = check_replies(lanes1, outcomes1)
        ok = [reply.seconds for reply in outcomes1 if reply.error is None]
        batch_s = _server_layers(run, before, after,
                                 sum(ok) / len(ok) if ok else 0.0)
        refs = sum(reply.report["l1_accesses"] for reply in computed1.values())
        run.layers["sim.host_ns_per_ref"] = batch_s * 1e9 / refs if refs else 0.0
        run.notes.append("serve-mixed split: read from the server's /metrics "
                         "over one more request schedule; the engine runs in "
                         "the executor's worker processes, so the in-process "
                         "engine layers read 0, sim.host_ns_per_ref is "
                         "executor batch time per reference, and no tracer "
                         "is installed (tracing.overhead_ratio reads 0)")
    reference.note()


def _write_spans(tracer: Tracer, run: Run) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{run.workload}-seed{run.seed}.jsonl"
    tracer.write_spans(path)
    run.notes.append(f"spans: {len(tracer.spans)} written to "
                     f"{path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------
def _result_line(run: Run, trace: bool) -> dict:
    if trace:
        names = PER_LAYER
        values = dict.fromkeys(PER_LAYER, 0)
        values.update(run.counts)
        values.update(run.layers)
    else:
        names = END_TO_END
        values = run.end_to_end
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names.items()},
    }


def _print_report(run: Run, trace: bool) -> None:
    print(f"== {run.workload} (seed {run.seed}; modelled caches start "
          f"empty in every cell; host time unless the name says cycles)")
    for name, unit in END_TO_END.items():
        if name in run.end_to_end:
            print(f"  {name:<14} {run.end_to_end[name]:>14.4f} {unit}")
    ratio = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'fail_ratio':<14} {ratio:>14.6f} ratio "
          f"({run.failed} of {run.attempted} operations)")
    for note in run.notes:
        print(f"  {note}")
    print("  exact simulated counts (must repeat bit for bit):")
    for name in COUNTS:
        print(f"    {name:<22} {run.counts[name]}")
    if "sim.host_ns_per_ref" in run.layers:
        print(f"    {'sim.host_ns_per_ref':<22} "
              f"{run.layers['sim.host_ns_per_ref']:.1f} ns/ref")
    for name in ("reuse.trace_share", "reuse.l1_stream_share"):
        if name in run.layers:
            print(f"  {name:<22} {run.layers[name]:.6f}")
    if trace:
        print("  per-layer:")
        for name, unit in PER_LAYER.items():
            value = run.layers.get(name, run.counts.get(name, 0))
            print(f"    {name:<28} {value} {unit}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    _bind_untraced()

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed)
    try:
        {"paper-cold": paper_cold, "sweep-distinct": sweep_distinct,
         "serve-mixed": serve_mixed}[args.workload](args, run, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _stop_all_servers()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    _print_report(run, bool(args.trace))
    print(json.dumps(_result_line(run, bool(args.trace))), flush=True)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
