"""Run one refsim benchmark workload and print its metrics.

    python3 refbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a refsim checkout; the simulator is imported from its
src/ directory.  The workload runs whole rounds in this one process until
the next round would end after S seconds (at least one round).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: sim_cycles_per_s (the
DRAM cycles a round asks for divided by the host time of the round's
program calls, each cell taken at its fastest repeat), setup_s (a fresh
interpreter's start to its first simulated cycle, less the time it spends
writing the workload's inputs, at the fastest of the cold set-ups run one
after each round) and peak_rss_mb (peak resident memory after the first
round's program calls).  With --trace 1 one untraced round is followed by
profiled rounds, and the metrics are the per-layer ones from layers.py.
Problems found by the checks, the rounds' and set-ups' host times and the
results digest go to standard error.
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".refbench_work")
WORKLOAD_NAMES = ("sparse-refresh", "trace-audit")


class Meter:
    """Host time spent in the program's own calls; the profiler, when
    given, runs only inside them too.

    Each block is cut into segments at every split(), so that a round's
    time is a list of segments, one per cell, that line up across rounds.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.seconds = 0.0
        self.segments = []
        self.peak_kib = 0

    def __enter__(self):
        if self.profiler is not None:
            self.profiler.enable()
        self._t0 = self._mark = time.perf_counter()
        return self

    def split(self) -> None:
        now = time.perf_counter()
        self.segments.append(now - self._mark)
        self._mark = now

    def __exit__(self, *exc):
        now = time.perf_counter()
        self.segments.append(now - self._mark)
        self.seconds += now - self._t0
        if self.profiler is not None:
            self.profiler.disable()
        self.peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return False


class FirstCycleReached(BaseException):
    """Ends a set-up probe at its first simulated cycle; a BaseException,
    so that no handler of the program's catches it."""


class FirstCycle:
    """Records when the first simulated cycle starts, then gets out of
    the way: the class's own loop is restored on that first call.  With
    `stop` set, the process goes no further than that cycle."""

    def __init__(self, simulation_cls, stop: bool = False):
        self.at = None
        original = simulation_cls._loop

        def first_loop(sim, cycles):
            simulation_cls._loop = original
            self.at = time.perf_counter()
            if stop:
                raise FirstCycleReached
            return original(sim, cycles)

        simulation_cls._loop = first_loop


def one_round(workload, meter, check: bool):
    before = meter.seconds
    meter.segments = []
    rnd = workload.run_round(meter, check)
    rnd.program_s = meter.seconds - before
    rnd.segments = meter.segments
    rnd.peak_kib = meter.peak_kib
    return rnd


def best_round_seconds(rounds) -> float:
    """A round's host time with each segment at its fastest.

    Every round does the same work (their digests are checked to agree),
    so the time of a segment above its fastest repeat is interference
    from other work on the host, not the program's cost.  Rounds that cut
    into different segments (a failed cell) fall back to the fastest
    whole round."""
    shapes = {len(rnd.segments) for rnd in rounds}
    if len(shapes) != 1:
        return min(rnd.program_s for rnd in rounds)
    return sum(min(seg) for seg in zip(*(rnd.segments for rnd in rounds)))


def setup_probe(name: str, seed: int, inputs_dir) -> float:
    """One cold set-up: seconds from just before a fresh interpreter is
    started on this script to its first simulated cycle, less the time it
    spends preparing the workload.  It reads the inputs this process wrote
    to `inputs_dir`, if any.  perf_counter is the system's monotonic
    clock, so the child's readings compare with this process's."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    if inputs_dir is not None:
        argv += ["--inputs", inputs_dir]
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"refbench: set-up probe exited with "
                         f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    report = json.loads(done.stdout.splitlines()[-1])
    return report["first_cycle_at"] - t0 - report["prep_s"]


def run_rounds(workload, meter, seconds: float, check: bool = True,
               after_round=None) -> list:
    """Whole rounds until the next one would end after `seconds`; the
    first is checked when `check` is set.  `after_round`, when given, is
    called with each round after it, on the same CPU, and counts as its
    time.

    Successive rounds run pinned to successive CPUs of the ones this
    process may use: on a shared host each CPU slows down and recovers on
    its own, so a cell's fastest repeat is found sooner when its repeats
    visit every CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    rounds = []
    longest = 0.0
    try:
        while True:
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
            t0 = time.perf_counter()
            rounds.append(one_round(workload, meter, check and not rounds))
            if after_round is not None:
                after_round(rounds[-1])
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > seconds:
                return rounds
    finally:
        os.sched_setaffinity(0, cpus)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up the workload in this fresh process, stop at its
    # first simulated cycle and report when that was
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "refsim", "__init__.py")):
        print(f"refbench: no refsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import refsim
    if os.path.dirname(os.path.dirname(os.path.abspath(refsim.__file__))) != SRC:
        print(f"refbench: refsim imported from {refsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from refsim.simulation import Simulation
    from workloads import WORKLOADS

    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        prep_t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, run_dir, args.inputs)
        prep_s = time.perf_counter() - prep_t0
        if args.setup_probe:
            first = FirstCycle(Simulation, stop=True)
            try:
                workload.run_round(Meter(), check=False)
            except FirstCycleReached:
                pass
            if first.at is None:
                raise SystemExit("refbench: the workload simulated no cycle")
            print(json.dumps({"first_cycle_at": first.at, "prep_s": prep_s}))
            return 0
        if args.trace:
            rounds, metrics = traced(workload, args.seconds)
        else:
            rounds, metrics = untraced(workload, args)
        problems = [p for rnd in rounds for p in rnd.problems]
        digests = {rnd.digest for rnd in rounds if rnd.digest}
        if len(digests) > 1:
            problems.append(f"rounds gave {len(digests)} different results")
        try:
            workload.cross_check()
        except Exception as exc:      # any failure here is a wrong result
            problems.append(f"event-skip cross-check: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    for problem in problems:
        print(f"refbench: {problem}", file=sys.stderr)
    print(f"rounds {len(rounds)}: program seconds "
          + " ".join(f"{rnd.program_s:.3f}" for rnd in rounds), file=sys.stderr)
    for digest in sorted(digests):
        print(f"results_digest {args.workload} seed={args.seed} {digest}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rnd.attempted for rnd in rounds),
        "failed": sum(rnd.failed for rnd in rounds),
        "metrics": metrics,
    }))
    return 0


# the share of each round's time given to the cold set-ups after it
PROBE_SHARE = 0.1


def untraced(workload, args):
    """Timed rounds, each followed by cold set-ups in fresh interpreters,
    at least one and as many as fit in PROBE_SHARE of the round's time.
    A set-up swings with the host's speed as much as a round does, so it
    too is taken at its fastest."""
    setups = []

    def probe(rnd):
        t0 = time.perf_counter()
        done = 0
        while True:
            setups.append(setup_probe(args.workload, args.seed,
                                      workload.inputs_dir))
            done += 1
            # stop before a next set-up, as long as these, would overrun
            spent = time.perf_counter() - t0
            if spent * (done + 1) / done > PROBE_SHARE * rnd.program_s:
                return

    rounds = run_rounds(workload, Meter(), args.seconds, after_round=probe)
    print("set-up seconds " + " ".join(f"{s:.3f}" for s in setups),
          file=sys.stderr)
    metrics = {
        "sim_cycles_per_s": {"value": rounds[0].cycles / best_round_seconds(rounds),
                             "unit": "cycles/s"},
        "setup_s": {"value": min(setups), "unit": "s"},
        "peak_rss_mb": {"value": rounds[0].peak_kib / 1024, "unit": "MiB"},
    }
    return rounds, metrics


def traced(workload, seconds):
    from layers import LayerTrace
    t0 = time.perf_counter()
    warm = one_round(workload, Meter(), check=True)
    trace = LayerTrace()
    trace.install()
    meter = Meter(trace.profiler)
    try:
        rounds = run_rounds(workload, meter,
                            seconds - (time.perf_counter() - t0), check=False)
    finally:
        trace.uninstall()
    metrics = trace.metrics(len(rounds), warm.program_s, meter.seconds)
    return [warm] + rounds, metrics


if __name__ == "__main__":
    sys.exit(main())
