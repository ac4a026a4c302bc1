#!/usr/bin/env python3
"""Via-layer OPC flow: train CAMO, compare all four engines (Table 1).

The full Table 1 regeneration; scale with ``REPRO_SCALE`` (smoke / repro /
paper) or the ``--scale`` flag.

Usage::

    python examples/via_flow.py --scale smoke
    python examples/via_flow.py                 # repro scale, several min
"""

import argparse

from repro.eval import experiments


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default=None,
        choices=["smoke", "repro", "paper"],
        help="effort profile (default: REPRO_SCALE env or 'repro')",
    )
    args = parser.parse_args()

    text, results = experiments.table(args.scale, "via")
    print(text)
    camo = results["CAMO"]
    exits = sum(row.early_exited for row in camo.rows)
    print()
    print(f"CAMO early-exited on {exits}/{len(camo.rows)} clips")


if __name__ == "__main__":
    main()
