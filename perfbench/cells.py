"""The benchmark's inputs: seeded cell lists and request schedules.

Everything the program receives is generated here from the workload
seed, so the same seed gives the same scenarios, in the same order,
on every run.  Nothing here times or runs anything.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, List

#: The seed of the paper's reference outputs; the checked-in digests
#: (``reference_digests.json``) hold every cell generated at it.
REFERENCE_SEED = 2016

#: paper-cold engine scale: at 0.03 ``Cluster3D.run`` is ~60% of the
#: host time of a cold 128-cell paper, one pass takes ~10 s.
PAPER_SCALE = 0.03
#: sweep-distinct and serve-mixed engine scale: small enough that
#: cluster construction and trace generation are a third or more of a
#: cell's host time.
CELL_SCALE = 0.02

#: The axes sweep-distinct draws from: every SPLASH-2 workload, every
#: interconnect, the paper's four power states, and an off-chip and a
#: stacked DRAM preset.
WORKLOADS = ("cholesky", "fft", "fmm", "radix", "ocean_contiguous",
             "volrend", "raytrace", "water-nsquared")
INTERCONNECTS = ("mesh", "bus-mesh", "bus-tree", "mot")
POWER_STATES = ("Full connection", "PC16-MB8", "PC4-MB32", "PC4-MB8")
DRAMS = ("ddr3", "wide-io")
#: One balanced block: every (workload, power state) pair once, each
#: interconnect eight times.  Four consecutive blocks hold every
#: (workload, interconnect, power state) combination exactly once.
BLOCK = len(WORKLOADS) * len(POWER_STATES)

#: serve-mixed: cells stored before the load starts (hits draw from
#: them), closed-loop clients (= cores of the reference host), and one
#: request in MISS_EVERY per client computes a new cell.  Hits that
#: meet a miss's write-back in the server wait for its GIL, a slow tail
#: of ~0.15 hits per miss.  At one in five or twenty that tail held
#: 1-4% of hits, so hit_p99_ms sat on its steep edge and spread by a
#: quarter or more of its median across seeds; at one in fifty it holds
#: ~0.3% and p99 lies where the distribution is flat.
WORKING_SET = 32
CLIENTS = 2
MISS_EVERY = 50

#: Nominal host time of one pass and nominal request rate on the
#: reference host.  Work is sized from --seconds with these, so what a
#: run computes depends only on its arguments, never on host speed.
PAPER_PASS_S = 7.5
SWEEP_PASS_S = 2.0
SERVE_NOMINAL_RPS = 500


def paper_passes(seconds: int) -> int:
    return max(1, round(seconds / PAPER_PASS_S))


def sweep_passes(seconds: int) -> int:
    """Passes of one :data:`BLOCK` of distinct cells each."""
    return max(1, round(seconds / SWEEP_PASS_S))


def serve_requests(seconds: int) -> int:
    """Requests in one serve-mixed phase."""
    return round(seconds * SERVE_NOMINAL_RPS)


def seeded_rng(seed: int, stream: str) -> random.Random:
    """An RNG private to one named stream of one workload seed."""
    digest = hashlib.sha256(f"{stream}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def paper_cells(seed: int):
    """The paper's cells at ``seed``, de-duplicated, in manifest order,
    with the manifest that produced them."""
    from repro.paper import default_manifest

    manifest = default_manifest(scale=PAPER_SCALE)
    cells, seen = [], set()
    for artifact in manifest.resolve(seed=seed):
        for fingerprint, scenario in zip(artifact.fingerprints,
                                         artifact.scenarios):
            if fingerprint not in seen:
                seen.add(fingerprint)
                cells.append(scenario)
    return manifest, cells


#: Trace-seed offsets of the distinct-cell streams, so cells of
#: different streams never share a trace either.
STREAMS = {"sweep": 0, "serve/working": 1_000_000, "serve/miss": 2_000_000,
           "serve/warmup": 3_000_000}


def distinct_cells(seed: int, start: int, count: int, stream: str) -> list:
    """Cells ``start .. start+count-1`` of a stream of distinct cells.

    Cell ``i`` gets its own trace seed, so no two cells share
    (workload, seed, scale, active cores): nothing can be reused
    across them.  Cells come in balanced blocks of :data:`BLOCK` (see
    there; seeded order, half of each block on each DRAM preset), so
    any whole block costs about the same on every seed.
    """
    from repro.scenario import Scenario, resolve_dram

    base = seed * 10_000_000 + STREAMS[stream]
    blocks = {}
    cells = []
    for index in range(start, start + count):
        block, offset = divmod(index, BLOCK)
        if block not in blocks:
            rng = seeded_rng(seed, f"{stream}/block{block}")
            combos = [
                (workload, INTERCONNECTS[(block + w + s) % len(INTERCONNECTS)],
                 state)
                for w, workload in enumerate(WORKLOADS)
                for s, state in enumerate(POWER_STATES)
            ]
            rng.shuffle(combos)
            drams = [DRAMS[i % len(DRAMS)] for i in range(BLOCK)]
            rng.shuffle(drams)
            blocks[block] = list(zip(combos, drams))
        (workload, interconnect, state), dram = blocks[block][offset]
        cells.append(Scenario(
            workload=workload,
            interconnect=interconnect,
            power_state=state,
            dram=resolve_dram(dram),
            scale=CELL_SCALE,
            seed=base + index,
        ))
    return cells


@dataclass(frozen=True)
class Request:
    """One serve-mixed request: a hit on working-set cell ``index``, or
    a miss on new cell ``index`` of the miss stream."""

    miss: bool
    index: int


def serve_schedule(seed: int, requests: int,
                   phase: int = 0) -> List[List[Request]]:
    """Per-client request lists for one closed-loop phase.

    Client ``c`` sends ``requests // CLIENTS`` requests; every
    :data:`MISS_EVERY`-th is a miss (staggered between clients so they
    do not miss in lockstep), the rest hit a seeded working-set cell.
    Miss cells are numbered globally, so no two misses of a phase (or
    of two phases) name the same cell.
    """
    per_client = max(MISS_EVERY, requests // CLIENTS)
    rng = seeded_rng(seed, f"serve/phase{phase}")
    schedules: List[List[Request]] = []
    misses = 0
    offset = phase * CLIENTS * per_client  # disjoint miss cells per phase
    for client in range(CLIENTS):
        lane: List[Request] = []
        stagger = client * MISS_EVERY // CLIENTS
        for j in range(per_client):
            if (j + stagger) % MISS_EVERY == MISS_EVERY - 1:
                lane.append(Request(True, offset + misses))
                misses += 1
            else:
                lane.append(Request(False, rng.randrange(WORKING_SET)))
        schedules.append(lane)
    return schedules


def working_set(seed: int) -> list:
    """The cells serve-mixed stores before its load starts."""
    return distinct_cells(seed, 0, WORKING_SET, "serve/working")


def serve_miss_cells(seed: int, lanes) -> dict:
    """{miss index: cell} for every miss of a schedule."""
    indices = sorted(r.index for lane in lanes for r in lane if r.miss)
    if not indices:
        return {}
    first = indices[0]
    cells = distinct_cells(seed, first, indices[-1] - first + 1, "serve/miss")
    return {index: cells[index - first] for index in indices}


def all_cells(workload: str, seed: int, seconds: int) -> list:
    """Every cell a run of ``workload`` computes, traced phase included
    (what ``reference_digests.json`` records at the reference seed)."""
    if workload == "paper-cold":
        return paper_cells(seed)[1]
    if workload == "sweep-distinct":
        return distinct_cells(seed, 0, sweep_passes(seconds) * BLOCK, "sweep")
    cells = working_set(seed)
    for phase in (0, 1):
        lanes = serve_schedule(seed, serve_requests(seconds), phase)
        cells += list(serve_miss_cells(seed, lanes).values())
    return cells


# ---------------------------------------------------------------------------
# Workload properties
# ---------------------------------------------------------------------------
def trace_key(scenario) -> tuple:
    """What trace generation depends on."""
    return (scenario.workload, scenario.seed, scenario.scale,
            scenario.active_cores())


def l1_stream_key(scenario) -> tuple:
    """What a core's L1 hit/miss sequence depends on: its trace and the
    L1 geometry (L1s are private and take no time argument)."""
    return trace_key(scenario) + (scenario.config.l1,)


def reuse_share(cells: Iterable, key) -> float:
    """Share of cells whose ``key`` an earlier cell already had."""
    cells = list(cells)
    if not cells:
        return 0.0
    return 1.0 - len({key(cell) for cell in cells}) / len(cells)


def result_digest(payload: dict) -> str:
    """sha256 of a result payload's canonical JSON."""
    from repro.scenario import canonical_json

    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
