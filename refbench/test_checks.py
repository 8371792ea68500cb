"""Each of the benchmark's checks passes a real run's output and rejects
the same output with one fault planted in it.

    python3 -m pytest refbench/test_checks.py
"""

import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from refsim.config import SimConfig, WorkloadSpec  # noqa: E402
from refsim.experiment import run_experiment  # noqa: E402
from refsim.simulation import Simulation  # noqa: E402
from refsim.timing import PER_BANK_POLICIES, DramGeometry  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailure  # noqa: E402


def small_config(policy, **over):
    fields = dict(policy=policy, density=32, cores=2, seed=5,
                  geometry=DramGeometry(channels=1, ranks_per_channel=2),
                  warmup_cycles=2_000, measured_cycles=40_000,
                  default_workload=WorkloadSpec(kind="random",
                                                footprint=16 << 20,
                                                read_fraction=0.6,
                                                intensity=10.0))
    fields.update(over)
    return SimConfig(**fields)


@pytest.fixture(scope="module")
def pb_run():
    config = small_config("pb")
    sim = Simulation(config)
    stats = sim.run()
    return config, sim, stats


@pytest.fixture(scope="module")
def dumped(tmp_path_factory):
    """A two-channel sarp-pb cell's dumped command trace and refresh log."""
    out = tmp_path_factory.mktemp("dump")
    config = small_config("sarp-pb", geometry=DramGeometry(ranks_per_channel=1),
                          measured_cycles=15_000)
    cmd, ref = str(out / "cmd.tsv"), str(out / "refresh.csv")
    run_experiment(config, dump_cmd_trace=cmd, dump_refresh_log=ref)
    sim = Simulation(config)
    return config, sim.timing, cmd, ref


def test_dropped_refresh_record_is_rejected(pb_run):
    config, sim, stats = pb_run
    log = sim.refresh_logs()[0]
    cycles = [r.cycle for r in log]
    checks.check_log_complete(cycles, config.warmup_cycles, stats.refresh_total)
    dropped = cycles[:len(cycles) // 2] + cycles[len(cycles) // 2 + 1:]
    with pytest.raises(CheckFailure, match="engines counted"):
        checks.check_log_complete(dropped, config.warmup_cycles,
                                  stats.refresh_total)


def test_dropped_refresh_log_row_is_rejected(dumped):
    config, _, cmd, ref = dumped
    entries = checks.read_cmd_trace(cmd)
    rows = checks.read_refresh_log(ref)
    checks.check_log_matches_trace(entries, rows, config.geometry.channels)
    with pytest.raises(CheckFailure, match="differs"):
        checks.check_log_matches_trace(entries, rows[:5] + rows[6:],
                                       config.geometry.channels)


WS = {"ab": 1.300, "sarp-ab": 1.427, "sarp-pb": 1.513, "fgr2x": 1.190}
ORDER = (("sarp-ab", "ab"), ("sarp-pb", "ab"), ("ab", "fgr2x"))


@pytest.mark.parametrize("a,b", [("ab", "sarp-ab"), ("ab", "fgr2x"),
                                 ("sarp-pb", "fgr2x")])
def test_swapped_ws_is_rejected(a, b):
    checks.check_ws_ordering(WS, ORDER)
    swapped = dict(WS)
    swapped[a], swapped[b] = WS[b], WS[a]
    with pytest.raises(CheckFailure, match="is not above"):
        checks.check_ws_ordering(swapped, ORDER)


def test_illegal_command_spliced_into_trace_is_rejected(dumped, tmp_path):
    config, timing, cmd, _ = dumped
    geo = config.geometry
    entries = checks.read_cmd_trace(cmd)
    assert checks.check_cmd_trace(entries, geo.channels, geo, timing, True) \
        == len(entries)
    with open(cmd) as fh:
        lines = fh.readlines()
    # a second ACT in the cycle after an ACT targets a bank with an open row
    at = next(i for i, line in enumerate(lines) if "\tACT\t" in line)
    fields = lines[at].split("\t")
    fields[0] = str(int(fields[0]) + 1)
    spliced = tmp_path / "spliced.tsv"
    spliced.write_text("".join(lines[:at + 1] + ["\t".join(fields)]
                               + lines[at + 1:]))
    with pytest.raises(CheckFailure, match="act.bank-busy"):
        checks.check_cmd_trace(checks.read_cmd_trace(str(spliced)),
                               geo.channels, geo, timing, True)


def test_refresh_count_outside_band_is_rejected(pb_run):
    config, sim, _ = pb_run
    geo, timing = config.geometry, sim.timing
    cycles = config.warmup_cycles + config.measured_cycles
    period = timing.tREFIpb * geo.banks_per_rank
    scopes = checks.refresh_scopes(
        ((r.rank, r.bank, r.rows) for r in sim.refresh_logs()[0]), True,
        geo.ranks_per_channel, geo.banks_per_rank, timing.rows_per_ref)
    checks.check_refresh_band(scopes, cycles, period)
    nominal = cycles / period
    for moved in (nominal + checks.CREDIT_BAND + 2,
                  nominal - checks.CREDIT_BAND - 2):
        planted = dict(scopes)
        planted[(1, 3)] = round(moved)
        with pytest.raises(CheckFailure, match=r"scope \(1, 3\)"):
            checks.check_refresh_band(planted, cycles, period)


def test_skip_equivalence_notices_a_changed_log(pb_run):
    config, sim, stats = pb_run
    run = (sim.command_logs(), stats, sim.refresh_logs())
    checks.check_same_run(run, run)
    changed = replace(stats, n_act=stats.n_act + 1)
    with pytest.raises(CheckFailure, match="SimStats"):
        checks.check_same_run(run, (run[0], changed, run[2]))


def test_trace_audit_window_rejects_a_silent_scope(tmp_path):
    """trace-audit's cells are long enough that a scope which never
    refreshed lies outside its credit band, and that retention_audit's
    starved-bank rule fires on it."""
    from refsim.refresh import retention_audit
    from refsim.simulation import build_timing
    from workloads import TraceAudit, _scope_period

    workload = TraceAudit(seed=1, work_dir=str(tmp_path))
    geo = workload.config.geometry
    cycles = workload.WARMUP + workload.MEASURED
    for policy in workload.POLICIES:
        timing = build_timing(replace(workload.config, policy=policy))
        per_bank = policy in PER_BANK_POLICIES
        silent = checks.refresh_scopes([], per_bank, geo.ranks_per_channel,
                                       geo.banks_per_rank, timing.rows_per_ref)
        with pytest.raises(CheckFailure, match="refreshes in"):
            checks.check_refresh_band(silent, cycles,
                                      _scope_period(policy, timing, geo))
        report = retention_audit([], geo, timing, cycles)
        assert any(v.kind == "starved-bank" for v in report.violations)
