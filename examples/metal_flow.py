#!/usr/bin/env python3
"""Metal-layer OPC flow: Table 2, plus the Fig. 5 trajectories and the
Fig. 6 visualization panels.

Usage::

    python examples/metal_flow.py --scale smoke
    python examples/metal_flow.py --visualize          # adds Fig. 6 PGMs
"""

import argparse

from repro.eval import experiments
from repro.eval.experiments import figure6_ascii


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", default=None, choices=["smoke", "repro", "paper"]
    )
    parser.add_argument(
        "--visualize",
        action="store_true",
        help="render Fig. 6 panels (ASCII + PGM files under results/)",
    )
    args = parser.parse_args()

    text, _results = experiments.table(args.scale, "metal")
    print(text)

    print()
    fig5_text, _curves = experiments.figure5(args.scale)
    print(fig5_text)

    if args.visualize:
        panels = experiments.figure6(args.scale, out_dir="results")
        print()
        print(figure6_ascii(panels))
        print("\nPGM panels written to results/fig6_M10_*.pgm")


if __name__ == "__main__":
    main()
