"""Regenerates paper Table 2: metal-layer OPC comparison.

Prints the paper-format table and asserts the headline shape: RL-OPC
(independent per-segment decisions, no modulator) degrades badly on metal,
while CAMO stays competitive with the Calibre-like engine.
"""

import pytest

from repro.eval import experiments


@pytest.fixture(scope="module")
def table2_results(scale_name):
    text, results = experiments.table(scale_name, "metal")
    print("\n" + text)
    return text, results


def test_table2_generation(table2_results, scale_name, benchmark):
    _text, results = table2_results
    bundle = experiments.trained_engines(scale_name, "metal")
    clip = bundle["test_clips"][0]

    benchmark(lambda: bundle["camo"].optimize(clip))

    camo = results["CAMO"]
    rlopc = results["RL-OPC"]
    calibre = results["Calibre-like"]
    # Paper shape: RL-OPC diverges on metal (3.42x in the paper); CAMO is
    # within striking distance of the commercial-like engine.
    assert rlopc.epe_sum > camo.epe_sum
    assert camo.epe_sum < 2.0 * calibre.epe_sum


def test_table2_measure_point_counts(table2_results, scale_name):
    """The suite reproduces Table 2's Point # column exactly."""
    from repro.data.metal_bench import METAL_TEST_POINTS, metal_test_suite
    from repro.geometry import fragment_clip

    bundle = experiments.trained_engines(scale_name, "metal")
    wanted = {
        clip.name: pts
        for clip, pts in zip(metal_test_suite(), METAL_TEST_POINTS)
    }
    for clip in bundle["test_clips"]:
        segments = fragment_clip(clip)
        points = sum(1 for s in segments if s.measure_point is not None)
        assert points == wanted[clip.name]
