"""The benchmark's workloads.

Each workload runs whole rounds of the same cells.  An operation is one
simulated cell together with its checks.  A cell that raises one of the
program's errors (or, on trace-audit, a CLI exit code other than 0) is a
failed operation; a check that rejects an output makes the run incorrect.
Only the program's own work runs inside `meter`: the checks do not count
towards host time.  Rounds repeat the same work, so the checks run on the
first round only; every round's results digest must equal the first's.
"""

import csv
import hashlib
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from refsim import cli, refresh
from refsim.config import SimConfig, WorkloadSpec, load_config
from refsim.errors import AuditError, ConfigError, MetricError, SimulationError
from refsim.simulation import Simulation, build_timing
from refsim.timing import PER_BANK_POLICIES, SARP_POLICIES, DramGeometry
from refsim.workload import AddressMap

import checks
import inputs

PROGRAM_ERRORS = (ConfigError, SimulationError, AuditError, MetricError)


@dataclass
class Round:
    cycles: int                 # DRAM cycles asked for: warmup + measured
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    program_s: float = 0.0      # host time inside the program's calls
    segments: list = field(default_factory=list)   # program_s cut per simulation
    peak_kib: int = 0           # peak RSS when the round's calls ended


def _check(problems: list, label: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailure as exc:
        problems.append(f"{label}: {exc}")


def _scope_period(policy: str, timing, geometry) -> int:
    """Cycles per nominal refresh of one scope (a bank or a rank)."""
    if policy in PER_BANK_POLICIES:
        return timing.tREFIpb * geometry.banks_per_rank
    return timing.tREFIab


def _log_checks(problems, label, config, timing, logs, credits):
    """Checks on a cell's in-memory refresh logs (whole run)."""
    geo = config.geometry
    per_bank = config.policy in PER_BANK_POLICIES
    period = _scope_period(config.policy, timing, geo)
    cycles = config.warmup_cycles + config.measured_cycles
    credits = list(credits)
    for ch, log in enumerate(logs):
        scopes = checks.refresh_scopes(
            ((r.rank, r.bank, r.rows) for r in log), per_bank,
            geo.ranks_per_channel, geo.banks_per_rank, timing.rows_per_ref)
        _check(problems, f"{label} ch{ch}", checks.check_refresh_band,
               scopes, cycles, period)
        credits += [(f"ch{ch} cycle {r.cycle}", r.credit_after)
                    for r in log if r.kind == "REFpb"]
    _check(problems, label, checks.check_credits, credits)


def _policy_credits(sim) -> list:
    out = []
    geo = sim.config.geometry
    for ch, ctrl in enumerate(sim.controllers):
        policy = ctrl.policy
        if hasattr(policy, "credit"):
            out.extend((f"ch{ch} rank {r} bank {b}", policy.credit(r, b))
                       for r in range(geo.ranks_per_channel)
                       for b in range(geo.banks_per_rank))
    return out


@contextmanager
def _split_at_runs(meter):
    """Cut the meter's time at the start of every simulation after the
    first, shared cells and solo runs alike."""
    sim_run = Simulation.run
    calls = 0

    def split_run(sim):
        nonlocal calls
        if calls:
            meter.split()
        calls += 1
        return sim_run(sim)

    Simulation.run = split_run
    try:
        yield
    finally:
        Simulation.run = sim_run


def skip_equivalence(config: SimConfig) -> None:
    """A cycle-by-cycle run (always_scan) matches the event-skipping run."""
    runs = []
    for always_scan in (False, True):
        sim = Simulation(config, enable_cmd_log=True)
        for ctrl in sim.controllers:
            ctrl.always_scan = always_scan
        stats = sim.run()
        runs.append((sim.command_logs(), stats, sim.refresh_logs()))
    checks.check_same_run(*runs)


CROSS_CHECK_CYCLES = dict(warmup_cycles=1_000, measured_cycles=6_000)


class SparseRefresh:
    """The criterion-4 audit configurations: Simulation.run, then
    retention_audit, on one channel and one rank at 32 Gb."""

    POLICIES = ("ab", "pb", "elastic", "ar", "darp", "dsarp")
    WRITE_HEAVY = ("darp", "dsarp")
    MEASURED = 100_000

    def __init__(self, seed: int, work_dir: str, inputs_dir=None):
        self.seed = seed
        self.inputs_dir = None

    def config(self, policy: str) -> SimConfig:
        if policy in self.WRITE_HEAVY:
            workload = WorkloadSpec(kind="random", footprint=64 << 20,
                                    read_fraction=0.2, intensity=12.0)
            cores = 2
        else:
            workload = WorkloadSpec(kind="random", footprint=64 << 20,
                                    read_fraction=0.6, intensity=100.0)
            cores = 1
        return SimConfig(policy=policy, density=32, cores=cores, seed=self.seed,
                         geometry=DramGeometry(channels=1, ranks_per_channel=1),
                         warmup_cycles=0, measured_cycles=self.MEASURED,
                         default_workload=workload)

    def run_round(self, meter, check: bool) -> Round:
        rnd = Round(cycles=len(self.POLICIES) * self.MEASURED,
                    attempted=len(self.POLICIES))
        digest = hashlib.sha256()
        for policy in self.POLICIES:
            config = self.config(policy)
            try:
                with meter:
                    sim = Simulation(config)
                    stats = sim.run()
                    reports = [refresh.retention_audit(log, config.geometry,
                                                       sim.timing, sim.now)
                               for log in sim.refresh_logs()]
            except PROGRAM_ERRORS as exc:
                rnd.failed += 1
                rnd.problems.append(f"{policy} raised {type(exc).__name__}: {exc}")
                continue
            logs = sim.refresh_logs()
            digest.update(repr((policy, stats, logs)).encode())
            if not check:
                continue
            for report in reports:
                _check(rnd.problems, policy, checks.check_retention_report,
                       report)
            _log_checks(rnd.problems, policy, config, sim.timing, logs,
                        _policy_credits(sim))
            _check(rnd.problems, policy, checks.check_log_complete,
                   (r.cycle for log in logs for r in log),
                   config.warmup_cycles, stats.refresh_total)
            _check(rnd.problems, policy, checks.check_ipc,
                   [(f"core {i}", stats.ipc(i)) for i in range(config.cores)],
                   "shared")
        rnd.digest = digest.hexdigest()
        return rnd

    def cross_check(self) -> None:
        skip_equivalence(replace(self.config("elastic"),
                                 measured_cycles=20_000))


class TraceAudit:
    """refsim.cli.main on seeded gzip traces, dumping the command trace and
    the refresh log of every cell, which the checks then re-read."""

    POLICIES = ("ab", "sarp-ab", "sarp-pb", "fgr2x")
    DENSITY = 16
    CORES = 4
    RECORDS = 20_000
    # subarray parallelism hides part of every all-bank refresh
    BETTER_THAN = (("sarp-ab", "ab"),)
    WARMUP = 1_000
    # long enough that a scope with no refresh at all falls out of its
    # credit band, and that the audit's starved-bank rule can fire
    MEASURED = 30_000

    def __init__(self, seed: int, work_dir: str, inputs_dir=None):
        """Writes the inputs for `seed` under `work_dir`, or, given
        `inputs_dir`, uses the ones written there for the same seed."""
        self.work_dir = work_dir
        if inputs_dir is None:
            self.inputs_dir = os.path.join(work_dir, "inputs")
            self.conf, self.traces = inputs.write_inputs(
                self.inputs_dir, seed, cores=self.CORES, records=self.RECORDS,
                address_bits=AddressMap(SimConfig().geometry).total_bits,
                density=self.DENSITY, warmup=self.WARMUP,
                measured=self.MEASURED)
        else:
            self.inputs_dir = inputs_dir
            self.conf, self.traces = inputs.input_paths(inputs_dir, self.CORES)
        self.argv = ["--config", self.conf, "--density", str(self.DENSITY)]
        for path in self.traces:
            self.argv += ["--trace", path]
        for policy in self.POLICIES:
            self.argv += ["--policy", policy]
        args = cli.build_parser().parse_args(self.argv)
        self.config = cli.apply_overrides(load_config(self.conf), args)

    def run_round(self, meter, check: bool) -> Round:
        cells = len(self.POLICIES)
        rnd = Round(cycles=cells * (self.WARMUP + self.MEASURED),
                    attempted=cells)
        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        try:
            out = os.path.join(out_dir, "results.csv")
            cmd = os.path.join(out_dir, "cmd.tsv")
            ref = os.path.join(out_dir, "refresh.csv")
            argv = self.argv + ["--out", out, "--dump-cmd-trace", cmd,
                                "--dump-refresh-log", ref]
            with meter, _split_at_runs(meter):
                code = cli.main(argv)
            if code != 0:
                rnd.failed = cells
                rnd.problems.append(f"simulate exited with {code}")
                return rnd
            if check:
                self._check_outputs(rnd, out, cmd, ref)
            # the solo CSV names each trace by path: digest it path-free
            inputs_dir = os.path.dirname(self.conf).encode()
            digest = hashlib.sha256()
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    data = fh.read().replace(inputs_dir, b"<inputs>")
                digest.update(name.encode() + b"\0" + data)
            rnd.digest = digest.hexdigest()
        finally:
            shutil.rmtree(out_dir)
        return rnd

    def _check_outputs(self, rnd: Round, out: str, cmd: str, ref: str) -> None:
        geo = self.config.geometry
        cycles = self.WARMUP + self.MEASURED
        for policy in self.POLICIES:
            label = f"{policy}@{self.DENSITY}"
            suffix = f".{policy}-{self.DENSITY}"
            config = replace(self.config, policy=policy)
            timing = build_timing(config)
            try:
                entries = checks.read_cmd_trace(cmd + suffix)
                checks.check_cmd_trace(entries, geo.channels, geo, timing,
                                       policy in SARP_POLICIES)
                checks.check_log_matches_trace(
                    entries, checks.read_refresh_log(ref + suffix),
                    geo.channels)
                per_bank = policy in PER_BANK_POLICIES
                period = _scope_period(policy, timing, geo)
                for ch in range(geo.channels):
                    scopes = checks.refresh_scopes(
                        ((e[3], e[4], timing.rows_per_ref) for e in entries
                         if e[2] == ch and e[1] in ("REFab", "REFpb")),
                        per_bank, geo.ranks_per_channel, geo.banks_per_rank,
                        timing.rows_per_ref)
                    checks.check_refresh_band(scopes, cycles, period)
            except checks.CheckFailure as exc:
                rnd.problems.append(f"{label}: {exc}")
        with open(out, newline="") as fh:
            ws = {row["policy"]: float(row["ws"]) for row in csv.DictReader(fh)}
        _check(rnd.problems, "trace-audit", checks.check_ws_ordering, ws,
               self.BETTER_THAN)
        with open(out + ".solo.csv", newline="") as fh:
            alone = [(f"core {row['core']}", float(row["alone_ipc"]))
                     for row in csv.DictReader(fh)]
        _check(rnd.problems, "trace-audit", checks.check_ipc, alone, "alone")

    def cross_check(self) -> None:
        skip_equivalence(replace(self.config, policy="sarp-pb",
                                 **CROSS_CHECK_CYCLES))


WORKLOADS = {
    "sparse-refresh": SparseRefresh,
    "trace-audit": TraceAudit,
}
