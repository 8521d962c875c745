"""Set-up of one fresh benchmark process: import heisgeo from the checkout
and generate one cycle of the workload's configs.  run.py times this script
in a fresh interpreter to measure setup_s.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>
"""

import sys
from pathlib import Path

import workloads as wl

wl.pin_threads()


def main(argv: list[str]) -> int:
    workload, seed, directory = argv
    wl.import_cli(Path(__file__).resolve().parent.parent)
    wl.write_configs(wl.WORKLOADS[workload], int(seed), Path(directory))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
