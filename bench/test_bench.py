"""Tests of the benchmark's own code: `python3 -m pytest -q bench`.

The answer checks must accept right answers and reject each kind of
corrupted output; the tracer must replace every binding of a wrapped
function and count what it wraps.
"""

from __future__ import annotations

import copy
import os
import time

import pytest

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("diagram", sorted(checks.ROOT_COUNTS))
def test_root_counts(diagram):
    roots = checks.positive_roots(workloads.DYNKIN_EDGES[diagram], workloads.rank(diagram))
    assert len(roots) == checks.ROOT_COUNTS[diagram]


def test_a4_has_ten_roots():
    assert len(checks.positive_roots([(1, 2), (2, 3), (3, 4)], 4)) == 10


def _listing(diagram):
    n = workloads.rank(diagram)
    roots = sorted(checks.positive_roots(workloads.DYNKIN_EDGES[diagram], n))
    return [{"dims": {str(v): d for v, d in enumerate(r, 1) if d}} for r in roots]


def _check_listing(listing, diagram="E6"):
    return checks.check_listing(
        listing, workloads.DYNKIN_EDGES[diagram], workloads.rank(diagram), diagram
    )


def test_listing_of_roots_passes():
    assert _check_listing(_listing("E6")) == []


def test_listing_with_dropped_class_fails():
    assert _check_listing(_listing("E6")[1:])


def test_listing_with_duplicated_vector_fails():
    listing = _listing("E6")
    listing[0] = copy.deepcopy(listing[1])
    assert _check_listing(listing)


def test_listing_with_extra_class_fails():
    listing = _listing("E6")
    assert _check_listing(listing + [copy.deepcopy(listing[-1])])


def _suite(name):
    """A suite output of the shape `quivercover suite` prints, with the
    counts the literature predicts."""
    m, ell = checks.NAKAYAMA[name]
    pairs = checks.LOCAL_PAIRS.get(name, 14)
    reports = [{"claim": c, "pass": True, "witnesses": []} for c in checks.CLAIMS]
    by_claim = {r["claim"]: r for r in reports}
    by_claim["Corres"]["witnesses"] = [
        {"witnesses": [{"base_indecomposables": m * ell, "orbit_classes": m * ell}]}
    ]
    by_claim["TiltingPushdown"]["witnesses"] = [
        {"witnesses": [{"downstairs": True, "upstairs": True}]},
        {"upstairs_orbit_pairs": pairs, "downstairs_pairs": pairs},
    ]
    by_claim["TiltingFinite"]["witnesses"] = [
        {"per_vertex": [{"vertex": str(v), "downstairs": 3, "upstairs_orbits": 3} for v in range(m)]}
    ]
    return reports, by_claim


@pytest.mark.parametrize("name", sorted(checks.NAKAYAMA))
def test_suite_with_known_counts_passes(name):
    assert checks.check_suite(_suite(name)[0], name) == []


def test_suite_with_flipped_pass_fails():
    reports, by_claim = _suite("n32")
    by_claim["DILemma"]["pass"] = False
    assert checks.check_suite(reports, "n32")


def test_suite_with_missing_claim_fails():
    reports, _ = _suite("n32")
    assert checks.check_suite(reports[1:], "n32")


def test_suite_with_unequal_pair_counts_fails():
    reports, by_claim = _suite("n32")
    by_claim["TiltingPushdown"]["witnesses"][1]["upstairs_orbit_pairs"] = 13
    assert checks.check_suite(reports, "n32")


def test_local_algebra_with_wrong_pair_count_fails():
    reports, by_claim = _suite("loop2")
    by_claim["TiltingPushdown"]["witnesses"][1].update(upstairs_orbit_pairs=3, downstairs_pairs=3)
    assert checks.check_suite(reports, "loop2")


def test_suite_with_dropped_class_fails():
    reports, by_claim = _suite("n32")
    by_claim["Corres"]["witnesses"][0]["witnesses"][0]["orbit_classes"] = 5
    assert checks.check_suite(reports, "n32")


def test_suite_with_unequal_vertex_counts_fails():
    reports, by_claim = _suite("n32")
    by_claim["TiltingFinite"]["witnesses"][0]["per_vertex"][0]["upstairs_orbits"] = 2
    assert checks.check_suite(reports, "n32")


def test_tracer_replaces_every_binding_and_counts():
    import tracing

    package = tracing.import_package(os.path.join(ROOT, "src"))
    tracer = tracing.Tracer()
    tracer.install(package)
    assert package.knitting.decompose is package.modules.decompose
    assert package.modules.decompose.__wrapped__.__module__ == "quivercover.modules"
    job = {"id": "loop2", "argv": ["indecs", "--input", os.path.join(ROOT, "golden", "loop2.json")]}
    wall, [(_, code, out)] = tracing.run_in_process([job], package.cli.main, tracer)
    assert code == 0
    metrics = tracer.metrics(wall)
    assert metrics["knitting.list_indecomposables.calls"]["value"] == 1
    assert metrics["knitting.classes"]["value"] == checks.NAKAYAMA["loop2"][0] * checks.NAKAYAMA["loop2"][1]
    assert sum(s for _, s in tracer.stats.values()) <= wall
    assert all(span[0] == "loop2" and span[3] >= span[2] for span in tracer.spans)


def test_run_process_probes_a_stopped_job_and_leaves_out_the_pause():
    import run

    affinity = os.sched_getaffinity(0)
    try:
        scaler = run.Scaler()
        workloads.write_dynkin_inputs(ROOT, "dynkin-knit")
        argv = ["indecs", "--input", workloads.dynkin_path(ROOT, "E6", "prime")]
        t0 = time.perf_counter()
        code, out, _, wall, cpu = run.run_process(argv, dict(os.environ, PYTHONPATH=run.SRC), scaler)
        elapsed = time.perf_counter() - t0
    finally:
        os.sched_setaffinity(0, affinity)
    assert code == 0 and not run.check_output({"id": "E6", "kind": "indecs", "expect": "E6"}, code, out)
    # One probe before the job, one per PROBE_INTERVAL_S while it ran.
    assert len(scaler.factors) >= 1 + int(wall / run.PROBE_INTERVAL_S) - 1
    assert 0 < wall < elapsed and cpu > 0
    assert scaler.take() > 0 and scaler.factors == []
