"""Print the output digest of the benchmark's first configs, to compare two
checkouts byte for byte.

    python3 tools/output_digests.py

For each workload of ``perfbench/workloads.py`` and each of the seeds 11 and
23, the first 16 configs are generated as a benchmark run generates them
(one ``random.Random(seed)`` stream, cycling through the workload's patch
kinds), and each operation runs in process through ``run_operation``.  One
line per operation: ``workload seed index sha256-of-its-output-files``, with
the operation's error after it if it failed.  Run it in two checkouts and
diff the output: equal lines mean byte-identical outputs.  heisgeo is
imported from this checkout's ``src``; ``perfbench`` is only read, and the
outputs go to a temporary directory.  Exits 1 if any operation failed.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402

SEEDS = (11, 23)
CONFIGS = 16  # per workload and seed


def main() -> int:
    wl.pin_threads()
    cli_main = wl.import_cli(ROOT)
    failed = 0
    work_dir = Path(tempfile.mkdtemp(prefix="heisgeo-digests-"))
    try:
        for name, workload in wl.WORKLOADS.items():
            for seed in SEEDS:
                rng = random.Random(seed)
                for i in range(CONFIGS):
                    config = wl.make_config(workload, rng, i % workload.cycle)
                    out = wl.run_operation(cli_main, workload, config, work_dir,
                                           f"op{i}")
                    failed += bool(out.error)
                    print(f"{name} {seed} {i} {out.digest}"
                          + (f" ERROR {out.error}" if out.error else ""))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
