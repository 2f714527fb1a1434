"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import cells as C
import run as R
import stats
from tracer import Tracer, install

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Seed determinism
# ---------------------------------------------------------------------------
def test_cell_lists_repeat_per_seed():
    a = C.distinct_cells(5, 0, 4 * C.BLOCK, "sweep")
    b = C.distinct_cells(5, 0, 4 * C.BLOCK, "sweep")
    assert a == b
    assert a != C.distinct_cells(6, 0, 4 * C.BLOCK, "sweep")
    # A slice of the stream is the same cells as the whole stream's.
    assert C.distinct_cells(5, 40, 50, "sweep") == a[40:90]


def test_paper_cells_follow_the_seed():
    _m, cells_a = C.paper_cells(3)
    _m, cells_b = C.paper_cells(3)
    assert cells_a == cells_b and len(cells_a) == 128
    assert {cell.seed for cell in cells_a} == {3}


def test_request_schedules_repeat_per_seed():
    requests = C.serve_requests(20)
    lanes = C.serve_schedule(9, requests)
    assert lanes == C.serve_schedule(9, requests)
    assert lanes != C.serve_schedule(10, requests)
    assert len(lanes) == C.CLIENTS
    for lane in lanes:
        assert sum(r.miss for r in lane) == len(lane) // C.MISS_EVERY


def test_phases_and_streams_never_share_a_miss_cell():
    requests = C.serve_requests(20)
    phase0 = C.serve_miss_cells(1, C.serve_schedule(1, requests, 0))
    phase1 = C.serve_miss_cells(1, C.serve_schedule(1, requests, 1))
    assert not set(phase0) & set(phase1)


# ---------------------------------------------------------------------------
# Distinctness: no reuse of any kind in sweep-distinct or serve misses
# ---------------------------------------------------------------------------
def test_sweep_distinct_shares_no_keys():
    cells_list = C.all_cells("sweep-distinct", 11, 60)
    keys = [C.trace_key(cell) for cell in cells_list]
    assert len(set(keys)) == len(keys)
    assert C.reuse_share(cells_list, C.trace_key) == 0.0
    assert C.reuse_share(cells_list, C.l1_stream_key) == 0.0


def test_sweep_blocks_are_balanced():
    four = C.distinct_cells(4, C.BLOCK, 4 * C.BLOCK, "sweep")
    for i in range(4):
        block = four[i * C.BLOCK:(i + 1) * C.BLOCK]
        assert {(c.workload, c.power_state) for c in block} == {
            (w, s) for w in C.WORKLOADS for s in C.POWER_STATES}
        for interconnect in C.INTERCONNECTS:
            assert sum(c.interconnect == interconnect for c in block) \
                == C.BLOCK // len(C.INTERCONNECTS)
        for dram in ("off-chip", "Wide"):
            assert sum(dram in c.dram.name for c in block) \
                == C.BLOCK // len(C.DRAMS)
    assert len({(c.workload, c.interconnect, c.power_state)
                for c in four}) == 4 * C.BLOCK


def test_serve_cells_share_no_keys():
    cells_list = C.all_cells("serve-mixed", 2, 20)
    keys = [C.trace_key(cell) for cell in cells_list]
    assert len(set(keys)) == len(keys)


def test_paper_reuse_share_matches_the_sixteen_l1_streams():
    _m, cells_list = C.paper_cells(C.REFERENCE_SEED)
    assert C.reuse_share(cells_list, C.l1_stream_key) == 1 - 16 / 128


# ---------------------------------------------------------------------------
# Percentile rank rule
# ---------------------------------------------------------------------------
def test_nearest_rank_and_samples_beyond():
    values = list(range(1, 1001))
    assert stats.nearest_rank(values, 0.99) == (990, 10)
    assert stats.nearest_rank(values, 0.5) == (500, 500)
    assert stats.nearest_rank(list(range(1, 101)), 0.9) == (90, 10)
    assert stats.nearest_rank([7.0], 0.99) == (7.0, 0)
    with pytest.raises(ValueError):
        stats.nearest_rank([], 0.5)


def test_highest_supported_percentile_keeps_ten_beyond():
    assert stats.highest_supported(1000) == 0.99
    assert stats.highest_supported(999) == 0.9
    assert stats.highest_supported(100) == 0.9
    assert stats.highest_supported(99) == 0.5
    assert stats.highest_supported(10_000) == 0.999


def test_histogram_delta_quantile():
    before = {"count": 2, "sum": 0.2,
              "buckets": {"0.1": 2, "1": 2, "+Inf": 2}}
    after = {"count": 6, "sum": 2.2,
             "buckets": {"0.1": 2, "1": 6, "+Inf": 6}}
    delta = stats.histogram_delta(before, after)
    assert delta["count"] == 4 and delta["sum"] == pytest.approx(2.0)
    # All four new observations sit in (0.1, 1]: the median is halfway.
    assert stats.histogram_quantile(delta, 0.5) == pytest.approx(0.55)
    assert stats.histogram_quantile(stats.histogram_delta(None, None), 0.5) == 0


# ---------------------------------------------------------------------------
# Metric-name grammar, and the script agreeing with BENCHMARK.json
# ---------------------------------------------------------------------------
def test_names_and_units_follow_the_grammar():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        names.append(metric["name"])
        assert stats.UNIT_RE.match(metric["unit"]), metric
    for name in names:
        assert stats.NAME_RE.match(name), name
    assert len(names) == len(set(names))
    assert not stats.NAME_RE.match("_leading_underscore")
    assert not stats.NAME_RE.match("x" * 65)
    assert not stats.UNIT_RE.match("req per s")


def test_script_reports_exactly_the_declared_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(R.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == R.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == R.PER_LAYER
    for metric in BENCHMARK["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_reference_seed_requires_every_cell_to_match():
    recorded = json.loads(
        (Path(R.__file__).parent / "reference_digests.json").read_text())
    assert recorded["seconds"] == BENCHMARK["run_seconds"]
    fingerprint, digest = next(iter(recorded["sweep-distinct"].items()))

    run = R.Run("sweep-distinct", C.REFERENCE_SEED)
    reference = R.Reference(run, BENCHMARK["run_seconds"])
    reference.check(fingerprint, digest, "recorded")
    assert run.failed == 0
    reference.check("0" * 64, digest, "not recorded")
    reference.check(fingerprint, "0" * 64, "changed")
    assert run.failed == 2 and reference.checked == 3

    # Another --seconds sizes other cells: the reference cannot vouch.
    run = R.Run("sweep-distinct", C.REFERENCE_SEED)
    R.Reference(run, BENCHMARK["run_seconds"] + 1)
    assert run.failed == 1

    # At any other seed the cells differ and nothing is looked up.
    run = R.Run("sweep-distinct", C.REFERENCE_SEED + 1)
    reference = R.Reference(run, 1)
    reference.check("0" * 64, digest, "not recorded")
    assert run.failed == 0 and reference.checked == 0


def test_sweep_hit_p50_averages_burst_medians(monkeypatch):
    monkeypatch.setattr(R, "_digest", lambda result: "digest")
    run = R.Run("sweep-distinct", 1)
    sampler = R.HitSampler(run, per_cell=3)
    cell = SimpleNamespace(label=lambda: "cell")
    sampler.pool = [(cell, "digest")]
    delays = iter([0.001, 0.001, 0.05, 0.004, 0.004, 0.004])
    sampler._run_scenario = lambda cell, store: time.sleep(next(delays))
    sampler()
    sampler()
    fast, slow = sampler.burst_medians
    assert 0.001 <= fast < 0.004 <= slow < 0.02  # the 50 ms hit is no median
    assert sampler.p50() == pytest.approx((fast + slow) / 2)
    assert len(sampler.latencies) == 6 and max(sampler.latencies) >= 0.05
    assert run.attempted == 6 and run.failed == 0


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
def test_self_time_excludes_children():
    tracer = Tracer()
    leaf = tracer.wrap_leaf("leaf", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.01)
        leaf()
        leaf()

    tracer.wrap("outer", outer, span=True)()
    assert tracer.count("leaf") == 2
    assert tracer.seconds("outer") >= tracer.seconds("leaf") >= 0.04
    assert tracer.seconds("outer", self_time=True) == pytest.approx(
        tracer.seconds("outer") - tracer.seconds("leaf"))
    (name, start, end, parent), = tracer.spans
    assert name == "outer" and end > start and parent == -1


def test_install_wraps_layers_and_uninstall_restores_them():
    from repro.sim.cluster import Cluster3D

    original = Cluster3D.run
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert Cluster3D.run.__wrapped__ is original
        from repro.scenario import Scenario

        Scenario("fft", scale=0.005, power_state="PC4-MB8").run()
    finally:
        uninstall()
    assert Cluster3D.run is original
    assert tracer.count("sim.run") == 1
    assert tracer.count("sim.l1") > 0
    assert tracer.count("scenario.build_cluster") == 1
    assert tracer.count("workloads.trace_gen") == 1
    assert tracer.seconds("sim.run") > tracer.seconds("sim.l1")
