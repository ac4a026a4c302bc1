"""Regenerates paper Figure 5: EPE trajectories with/without the modulator.

Asserts the paper's observation: with the modulator the trajectory
descends and converges; without it the (budget-constrained) policy alone
makes far less progress.
"""

import pytest

from repro.eval import experiments


@pytest.fixture(scope="module")
def fig5_curves(scale_name):
    steps = 6 if scale_name == "smoke" else 15
    text, curves = experiments.figure5(scale_name, steps=steps)
    print("\n" + text)
    return curves


def test_figure5_generation(fig5_curves, scale_name, benchmark):
    bundle = experiments.trained_engines(scale_name, "metal")
    from repro.data.metal_bench import metal_test_suite

    m2 = next(c for c in metal_test_suite() if c.name == "M2")
    benchmark(lambda: bundle["camo"].optimize(m2, max_updates=3, early_exit=False))

    for case in ("M2", "M4"):
        with_mod = fig5_curves[f"{case} w. modulator"]
        without_mod = fig5_curves[f"{case} w.o. modulator"]
        # Modulated runs make large net progress from the initial mask...
        assert with_mod[-1] < 0.6 * with_mod[0]
        # ...and end at least as well as the unmodulated ones.
        assert with_mod[-1] <= without_mod[-1] * 1.05
