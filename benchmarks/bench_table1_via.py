"""Regenerates paper Table 1: via-layer OPC comparison.

Prints the full paper-format table (EPE / PVB / RT per engine per design,
Sum and Ratio rows) and asserts the qualitative orderings the paper
reports: the one-shot DAMO-like engine is the fastest but least accurate,
and CAMO's summed EPE beats RL-OPC.
"""

import pytest

from repro.eval import experiments


@pytest.fixture(scope="module")
def table1_results(scale_name):
    text, results = experiments.table(scale_name, "via")
    print("\n" + text)
    return text, results


def test_table1_generation(table1_results, scale_name, benchmark):
    """Benchmark CAMO inference over the via test suite (training cached)."""
    _text, results = table1_results
    bundle = experiments.trained_engines(scale_name, "via")
    clip = bundle["test_clips"][0]

    benchmark(lambda: bundle["camo"].optimize(clip))

    camo = results["CAMO"]
    damo = results["DAMO-like"]
    rlopc = results["RL-OPC"]
    # Paper-shape assertions (Table 1): DAMO fastest / worst EPE; CAMO
    # better than the no-modulator, no-correlation RL baseline.
    assert damo.runtime_sum < camo.runtime_sum
    assert damo.epe_sum > camo.epe_sum
    assert camo.epe_sum <= rlopc.epe_sum


def test_table1_all_clips_converge(table1_results, scale_name):
    """CAMO improves on the initial mask for every clip.  Only CAMO is
    checked: the baselines are not held to this bound."""
    _text, results = table1_results
    bundle = experiments.trained_engines(scale_name, "via")
    for row in results["CAMO"].rows:
        clip = next(c for c in bundle["test_clips"] if c.name == row.clip_name)
        # 4 measure points per via, initial |EPE| >= ~10 nm per point.
        initial_bound = 4 * clip.target_count * 10
        assert row.epe_nm < initial_bound
