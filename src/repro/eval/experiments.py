"""Drivers that regenerate the paper's tables and figures.

Every artefact of the evaluation section has one entry point here:

* :func:`table1` — via-layer comparison (DAMO-like, Calibre-like MB-OPC,
  RL-OPC, CAMO) on V1..V13;
* :func:`table2` — metal-layer comparison (Calibre-like, RL-OPC, CAMO) on
  M1..M10;
* :func:`figure4` — modulator preference vectors vs EPE (paper projection
  function f(x) = 0.02 x^4 + 1);
* :func:`figure5` — EPE-vs-step trajectories on M2/M4 with and without the
  modulator;
* :func:`figure6` — target / mask / printed contour / PV-band panels for
  case M10.

``scale`` selects the effort profile: ``"smoke"`` (seconds, CI),
``"repro"`` (the default used by the benches — minutes, reproduces the
trends), ``"paper"`` (full settings — CPU-hours).  Trained engines are
cached per (scale, layer) within the process so the figure drivers reuse
the table drivers' training work.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from repro.baselines.damo import DamoConfig, DamoLikeOPC
from repro.baselines.mbopc import MBOPC, MBOPCConfig
from repro.baselines.rlopc import RLOPC, RLOPCConfig
from repro.constants import VIA_INITIAL_BIAS_NM
from repro.core.agent import CAMO
from repro.core.config import CamoConfig
from repro.core.modulator import Modulator
from repro.data.metal_bench import METAL_TEST_POINTS, metal_test_suite, metal_train_suite
from repro.data.via_bench import VIA_TEST_COUNTS, via_test_suite, via_train_suite
from repro.errors import ConfigError
from repro.eval.tables import format_comparison_table
from repro.litho.simulator import LithoConfig, LithographySimulator
from repro.service import MaskOptService
from repro.viz.ascii_art import ascii_image
from repro.viz.pgm import save_pgm


@dataclass(frozen=True)
class Scale:
    """Effort profile for the experiment drivers."""

    name: str
    n_train_clips: int
    n_test_clips: int  # 0 = all
    imitation_epochs_via: int
    imitation_epochs_metal: int
    rl_epochs: int
    rlopc_imitation_epochs: int
    damo_epochs: int
    encode_size_via: int
    encode_size_metal: int
    embed_dim_metal: int
    max_kernels: int


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        n_train_clips=2,
        n_test_clips=2,
        imitation_epochs_via=2,
        imitation_epochs_metal=1,
        rl_epochs=0,
        rlopc_imitation_epochs=1,
        damo_epochs=5,
        encode_size_via=16,
        encode_size_metal=16,
        embed_dim_metal=64,
        max_kernels=6,
    ),
    "repro": Scale(
        name="repro",
        n_train_clips=0,
        n_test_clips=0,
        imitation_epochs_via=18,
        imitation_epochs_metal=6,
        rl_epochs=2,
        rlopc_imitation_epochs=8,
        damo_epochs=60,
        encode_size_via=32,
        encode_size_metal=24,
        embed_dim_metal=128,
        max_kernels=8,
    ),
    "paper": Scale(
        name="paper",
        n_train_clips=0,
        n_test_clips=0,
        imitation_epochs_via=500,
        imitation_epochs_metal=500,
        rl_epochs=50,
        rlopc_imitation_epochs=500,
        damo_epochs=500,
        encode_size_via=128,
        encode_size_metal=64,
        embed_dim_metal=256,
        max_kernels=12,
    ),
}

_ENGINE_CACHE: dict[tuple[str, str], dict] = {}


def get_scale(scale: str | Scale | None = None) -> Scale:
    """Resolve a scale by name, object, or the REPRO_SCALE env variable."""
    if isinstance(scale, Scale):
        return scale
    name = scale or os.environ.get("REPRO_SCALE", "repro")
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigError(f"unknown scale {name!r}; choose from {sorted(SCALES)}") from None


def build_simulator(scale: str | Scale | None = None) -> LithographySimulator:
    resolved = get_scale(scale)
    return LithographySimulator(
        LithoConfig(pixel_nm=4.0, max_kernels=resolved.max_kernels)
    )


def _subset(clips: list, limit: int) -> list:
    return clips if limit == 0 else clips[:limit]


# --------------------------------------------------------------------------
# Engine construction + training (cached per scale and layer)
# --------------------------------------------------------------------------

def trained_via_engines(scale: str | Scale | None = None) -> dict:
    """Simulator, suites and the four trained/configured via engines."""
    resolved = get_scale(scale)
    key = (resolved.name, "via")
    if key in _ENGINE_CACHE:
        return _ENGINE_CACHE[key]

    simulator = build_simulator(resolved)
    train_clips = _subset(via_train_suite(), resolved.n_train_clips)
    test_clips = _subset(via_test_suite(), resolved.n_test_clips)

    camo_cfg = CamoConfig(
        encode_size=resolved.encode_size_via,
        imitation_epochs=resolved.imitation_epochs_via,
        rl_epochs=resolved.rl_epochs,
        policy_temperature=2.5,
        initial_bias_nm=VIA_INITIAL_BIAS_NM,
    )
    camo = CAMO(camo_cfg, simulator)
    camo.train(train_clips)

    rlopc_cfg = RLOPCConfig(
        encode_size=resolved.encode_size_via,
        imitation_epochs=resolved.rlopc_imitation_epochs,
        rl_epochs=max(resolved.rl_epochs, 1) if resolved.rl_epochs else 0,
        initial_bias_nm=VIA_INITIAL_BIAS_NM,
    )
    rlopc = RLOPC(rlopc_cfg, simulator)
    rlopc.train(train_clips)

    damo_cfg = DamoConfig(
        encode_size=resolved.encode_size_via,
        epochs=resolved.damo_epochs,
        initial_bias_nm=VIA_INITIAL_BIAS_NM,
    )
    damo = DamoLikeOPC(damo_cfg, simulator)
    damo.train(train_clips)

    mbopc = MBOPC(
        MBOPCConfig(initial_bias_nm=VIA_INITIAL_BIAS_NM), simulator
    )

    bundle = {
        "simulator": simulator,
        "train_clips": train_clips,
        "test_clips": test_clips,
        "camo": camo,
        "rlopc": rlopc,
        "damo": damo,
        "mbopc": mbopc,
    }
    _ENGINE_CACHE[key] = bundle
    return bundle


def trained_metal_engines(scale: str | Scale | None = None) -> dict:
    """Simulator, suites and the trained/configured metal engines."""
    resolved = get_scale(scale)
    key = (resolved.name, "metal")
    if key in _ENGINE_CACHE:
        return _ENGINE_CACHE[key]

    simulator = build_simulator(resolved)
    train_clips = _subset(metal_train_suite(), resolved.n_train_clips)
    test_clips = _subset(metal_test_suite(), resolved.n_test_clips)

    camo_cfg = CamoConfig.repro_metal(
        encode_size=resolved.encode_size_metal,
        embed_dim=resolved.embed_dim_metal,
        imitation_epochs=resolved.imitation_epochs_metal,
        rl_epochs=resolved.rl_epochs,
        policy_temperature=2.5,
    )
    camo = CAMO(camo_cfg, simulator)
    camo.train(train_clips)

    rlopc_cfg = RLOPCConfig.metal(
        encode_size=resolved.encode_size_metal,
        imitation_epochs=resolved.rlopc_imitation_epochs,
        rl_epochs=max(resolved.rl_epochs, 1) if resolved.rl_epochs else 0,
    )
    rlopc = RLOPC(rlopc_cfg, simulator)
    rlopc.train(train_clips)

    mbopc = MBOPC(
        MBOPCConfig(
            max_updates=15,
            early_exit_threshold=1.0,
            early_exit_mode="per_point",
        ),
        simulator,
    )

    bundle = {
        "simulator": simulator,
        "train_clips": train_clips,
        "test_clips": test_clips,
        "camo": camo,
        "rlopc": rlopc,
        "mbopc": mbopc,
    }
    _ENGINE_CACHE[key] = bundle
    return bundle


# --------------------------------------------------------------------------
# Table 1 / Table 2
# --------------------------------------------------------------------------

def table1(scale: str | Scale | None = None) -> tuple[str, dict]:
    """Via-layer comparison (paper Table 1)."""
    bundle = trained_via_engines(scale)
    test_clips = bundle["test_clips"]
    # One service call sweeps all four engines in order and funnels
    # every reported EPE through one cross-engine shape-binned
    # re-simulation pass (service docs).
    service = MaskOptService(simulator=bundle["simulator"])
    suites = service.map_suite(
        {
            "DAMO-like": bundle["damo"],
            "Calibre-like": bundle["mbopc"],
            "RL-OPC": bundle["rlopc"],
            "CAMO": bundle["camo"],
        },
        test_clips,
    )
    results = list(suites.values())
    counts = {
        clip.name: count for clip, count in zip(test_clips, VIA_TEST_COUNTS)
    }
    text = format_comparison_table(
        results,
        design_counts=counts,
        count_header="Via #",
        title="Table 1: via-layer OPC comparison (EPE nm / PVB nm^2 / RT s)",
    )
    return text, {r.engine: r for r in results}


def table2(scale: str | Scale | None = None) -> tuple[str, dict]:
    """Metal-layer comparison (paper Table 2)."""
    bundle = trained_metal_engines(scale)
    test_clips = bundle["test_clips"]
    service = MaskOptService(simulator=bundle["simulator"])
    suites = service.map_suite(
        {
            "Calibre-like": bundle["mbopc"],
            "RL-OPC": bundle["rlopc"],
            "CAMO": bundle["camo"],
        },
        test_clips,
    )
    results = list(suites.values())
    counts = {
        clip.name: points
        for clip, points in zip(metal_test_suite(), METAL_TEST_POINTS)
        if any(clip.name == c.name for c in test_clips)
    }
    text = format_comparison_table(
        results,
        design_counts=counts,
        count_header="Point #",
        title="Table 2: metal-layer OPC comparison (EPE nm / PVB nm^2 / RT s)",
    )
    return text, {r.engine: r for r in results}


# --------------------------------------------------------------------------
# Figures
# --------------------------------------------------------------------------

def figure4(epe_values: tuple[float, ...] = (-10, -6, -3, -1, 0, 1, 3, 6, 10)) -> str:
    """Modulator preference vectors (paper Fig. 4, f(x) = 0.02 x^4 + 1)."""
    modulator = Modulator()  # paper polynomial mode, unscaled
    lines = [
        "Figure 4: modulated movement preferences p_hat per signed EPE",
        "EPE(nm)   m1(-2)  m2(-1)  m3(0)   m4(+1)  m5(+2)",
    ]
    for epe in epe_values:
        pref = modulator.preference(float(epe))
        cells = "  ".join(f"{p:.4f}" for p in pref)
        lines.append(f"{epe:+6.1f}   {cells}")
    return "\n".join(lines)


def figure5(
    scale: str | Scale | None = None,
    cases: tuple[str, ...] = ("M2", "M4"),
    steps: int = 15,
) -> tuple[str, dict[str, list[float]]]:
    """EPE trajectories with / without the modulator (paper Fig. 5)."""
    bundle = trained_metal_engines(scale)
    camo: CAMO = bundle["camo"]
    by_name = {clip.name: clip for clip in metal_test_suite()}
    curves: dict[str, list[float]] = {}
    original = camo.config
    try:
        for case in cases:
            clip = by_name[case]
            camo.config = dataclasses.replace(original, use_modulator=True)
            with_mod = camo.optimize(clip, max_updates=steps, early_exit=False)
            camo.config = dataclasses.replace(original, use_modulator=False)
            without_mod = camo.optimize(clip, max_updates=steps, early_exit=False)
            curves[f"{case} w. modulator"] = with_mod.epe_curve
            curves[f"{case} w.o. modulator"] = without_mod.epe_curve
    finally:
        camo.config = original
    lines = ["Figure 5: EPE (nm) vs optimization step"]
    for label, curve in curves.items():
        series = " ".join(f"{v:.0f}" for v in curve)
        lines.append(f"{label:22s}: {series}")
    return "\n".join(lines), curves


def figure6(
    scale: str | Scale | None = None,
    case: str = "M10",
    out_dir: str | None = None,
) -> dict[str, np.ndarray]:
    """Target / mask / printed contour / PV band panels (paper Fig. 6)."""
    from repro.geometry.raster import rasterize
    from repro.metrology.pvband import pvband_image

    bundle = trained_metal_engines(scale)
    camo: CAMO = bundle["camo"]
    by_name = {clip.name: clip for clip in metal_test_suite()}
    clip = by_name[case]
    outcome = camo.optimize(clip)
    state = outcome.final_state
    grid = camo.context(clip).env.grid

    panels = {
        "target": rasterize(clip.targets, grid),
        "mask": rasterize(state.mask.mask_polygons(), grid),
        "printed": state.litho.nominal.astype(np.float64),
        "pvband": pvband_image(state.litho.inner, state.litho.outer).astype(
            np.float64
        ),
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for label, image in panels.items():
            save_pgm(image, os.path.join(out_dir, f"fig6_{case}_{label}.pgm"))
    return panels


def figure6_ascii(panels: dict[str, np.ndarray], width: int = 48) -> str:
    blocks = []
    for label, image in panels.items():
        blocks.append(f"--- {label} ---")
        blocks.append(ascii_image(image, width=width))
    return "\n".join(blocks)
