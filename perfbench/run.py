"""heisgeo benchmark: drives the CLI entry point ``heisgeo.cli.main`` in
process, on configs generated from a workload seed, and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is one process, one thread, in a closed loop: each call starts when the
previous one has returned and its outputs have been checked.  A call is one
operation of the workload on a fresh config (for the analyze/mesh sweep, the
analyze and mesh pair on one config).  Calls start while the run is expected
to end within ``--seconds``.

``--trace 0`` reports the end-to-end metrics, with every time scaled to the
nominal host speed by a reference kernel timed around it (see HostSpeed);
the wall times are printed next to them.  ``--trace 1`` alternates
untraced and traced calls over whole cycles of the workload's patch kinds and
reports per-layer counts and times per call (see tracer.py).  Each run ends
by repeating one earlier call's config and comparing output bytes.
The last line of standard output is the JSON result; the exit code is 0 only
when every call passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer, TracerError

wl.pin_threads()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 9
#: percentile reported as call_s.tail
TAIL_PERCENTILE = 90
#: seconds the reference kernel takes at the nominal host speed
REF_NOMINAL_S = 1.0e-3


def _ref_step(a: float, b: float) -> float:
    return a * 0.5 + b * 0.25 + 1.0


def reference_seconds() -> float:
    """Median of five timings of a fixed pure-Python kernel: function calls
    and float arithmetic, nothing that the garbage collector tracks."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise RuntimeError("a trace or profile hook would slow the reference kernel")
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(8000):
            acc = _ref_step(acc, 1.0) * 0.5
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class HostSpeed:
    """Scales wall time to the nominal host speed.

    A shared virtual machine can run this process 1.2 to 1.9 times slower
    than its best, in phases of seconds to minutes, and CPU time follows wall
    time.  Each measured interval is divided by the reference kernel's time
    around it (timed just before and just after) relative to REF_NOMINAL_S,
    so that host drift cancels while a change in heisgeo's own speed does
    not: the kernel runs none of heisgeo's code.
    """

    def __init__(self) -> None:
        self.last = reference_seconds()
        self.refs: list[float] = []

    def scale(self, wall_s: float) -> float:
        after = reference_seconds()
        ref = 0.5 * (self.last + after)
        self.last = after
        self.refs.append(ref)
        return wall_s * REF_NOMINAL_S / ref


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(workload: wl.Workload, seed: int, work_dir: Path,
                  host: HostSpeed) -> tuple[float, float]:
    """Median time of a fresh interpreter importing heisgeo and generating
    one cycle of configs, scaled to nominal host speed and as wall time."""
    scaled, wall = [], []
    for i in range(SETUP_REPEATS):
        probe_dir = work_dir / f"setup{i}"
        probe_dir.mkdir()
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                        workload.name, str(seed), str(probe_dir)],
                       cwd=ROOT, check=True)
        wall.append(time.perf_counter() - start)
        scaled.append(host.scale(wall[-1]))
        shutil.rmtree(probe_dir)
    return statistics.median(scaled), statistics.median(wall)


def tail(values: list[float]) -> tuple[float, str]:
    """Nearest-rank p90 and its label.

    A fixed percentile, not the highest one with ten calls beyond it: runs
    make 10 to 90 calls, and on the closed-form matrix, whose two helices
    take a quarter of the calls and twice the time, that percentile moved
    between the cylinder and helix times as the call count varied.
    """
    ranked = sorted(values)
    k = math.ceil(TAIL_PERCENTILE / 100.0 * len(ranked)) - 1
    return ranked[k], (f"p{TAIL_PERCENTILE} of {len(ranked)} calls, "
                       f"{len(ranked) - 1 - k} beyond it")


class Runner:
    """Makes the run's calls, on fresh configs, and tallies failures."""

    def __init__(self, workload: wl.Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.main = wl.import_cli(ROOT)
        self.configs: list[dict] = []
        self.outcomes: list[wl.Outcome] = []
        self.scaled: list[float] = []  # call times at nominal host speed
        self.errors: list[str] = []
        self.host = HostSpeed()

    def call(self, kind: int) -> wl.Outcome:
        config = wl.make_config(self.workload, self.rng, kind)
        outcome = wl.run_operation(self.main, self.workload, config,
                                   self.work_dir, f"call{len(self.configs)}")
        self.configs.append(config)
        self.outcomes.append(outcome)
        self.scaled.append(self.host.scale(outcome.seconds))
        if outcome.error:
            self.errors.append(f"call {len(self.configs) - 1}: {outcome.error}")
        return outcome

    def repeat_one(self) -> None:
        """Run one earlier config again; its output bytes must match."""
        i = self.rng.randrange(len(self.configs))
        again = wl.run_operation(self.main, self.workload, self.configs[i],
                                 self.work_dir, "repeat")
        self.outcomes.append(again)
        if again.error:
            self.errors.append(f"repeat of call {i}: {again.error}")
        elif again.digest != self.outcomes[i].digest:
            self.errors.append(f"repeat of call {i}: output bytes differ")

    @property
    def attempted(self) -> int:
        return len(self.outcomes)


def loop(seconds: float, unit) -> int:
    """Run unit(i) for i = 0, 1, ... while the next one is expected to end
    within `seconds`; always at least once."""
    start = time.perf_counter()
    n = 0
    while True:
        unit(n)
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n > seconds:
            return n


def timed_run(runner: Runner, seed: int, seconds: float) -> dict:
    workload = runner.workload
    setup_s, setup_wall = setup_seconds(workload, seed, runner.work_dir, runner.host)
    loop(seconds, lambda i: runner.call(i % workload.cycle))
    wall = [o.seconds for o in runner.outcomes]
    scaled = list(runner.scaled)
    runner.repeat_one()
    tail_s, tail_label = tail(scaled)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = statistics.median(runner.host.refs)
    print(f"load: closed loop, 1 process, 1 thread; {len(wall)} timed calls "
          f"of {wl.POINTS} grid points ({wl.NU}x{wl.NV})")
    print(f"host: reference kernel {ref * 1e3:.4g} ms, nominal "
          f"{REF_NOMINAL_S * 1e3:g} ms; times below are scaled to nominal speed")
    return {
        "call_s.p50": (statistics.median(scaled), "s",
                       f"median of {len(scaled)} calls; wall "
                       f"{statistics.median(wall):.4g} s"),
        "call_s.tail": (tail_s, "s", f"{tail_label}; wall {tail(wall)[0]:.4g} s"),
        "points_per_s": (wl.POINTS * len(scaled) / sum(scaled), "1/s",
                         f"grid points over summed call time; wall "
                         f"{wl.POINTS * len(wall) / sum(wall):.4g} 1/s"),
        "setup_s": (setup_s, "s",
                    f"median of {SETUP_REPEATS} fresh interpreters (import + "
                    f"configs); wall {setup_wall:.4g} s"),
        "peak_rss_mb": (rss_mb, "MB", "benchmark process"),
    }


def traced_run(runner: Runner, seconds: float) -> dict:
    workload = runner.workload
    tracer = Tracer()
    for function, sites in tracer.bindings.items():
        print(f"trace: {function} -> {', '.join(sites)}")
    times = {False: 0.0, True: 0.0}
    traced_calls = 0

    def cycle(c: int) -> None:
        nonlocal traced_calls
        for kind in range(workload.cycle):
            order = (False, True) if (c + kind) % 2 == 0 else (True, False)
            for traced in order:
                if traced:
                    tracer.install()
                try:
                    times[traced] += runner.call(kind).seconds
                finally:
                    tracer.uninstall()
            traced_calls += 1

    loop(seconds, cycle)
    runner.repeat_one()
    counts = tracer.counts()
    missing = sorted(layer for layer in workload.required if counts[layer] == 0)
    if missing:
        raise TracerError(f"{workload.name} never reached {', '.join(missing)}; "
                          "a required layer was renamed, removed or bypassed")
    print(f"load: closed loop, 1 process, 1 thread; {traced_calls} traced and "
          f"{traced_calls} untraced calls in whole cycles of {workload.cycle}")
    metrics = {name: (value, unit, "per call")
               for name, (value, unit) in tracer.metrics(traced_calls,
                                                         wl.POINTS).items()}
    metrics["trace.overhead_ratio"] = (times[True] / times[False], "ratio",
                                       "traced / untraced call time")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = wl.WORKLOADS[args.workload]
    # one CPU for the calls, the reference kernel and the set-up probes, which
    # inherit it: the two CPUs of a shared machine drift apart
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work_dir = ROOT / ".bench_out" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        runner = Runner(workload, args.seed, work_dir)
        import numpy

        print(f"heisgeo benchmark: workload={workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(f"env: commit={commit_id()} nproc={os.cpu_count()} pinned to cpu {cpu} "
              f"python={platform.python_version()} numpy={numpy.__version__} "
              f"blas/openmp threads=1")
        if args.trace:
            metrics = traced_run(runner, args.seconds)
        else:
            metrics = timed_run(runner, args.seed, args.seconds)
    except TracerError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    failed = len(runner.errors)
    for error in runner.errors[:10]:
        print(f"FAILED {error}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<44} {value:<22.10g} {unit:<12} {note}")
    print(f"{'failed_ratio':<44} {failed / runner.attempted:<22.10g} "
          f"{'ratio':<12} {failed} of {runner.attempted} calls attempted")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
