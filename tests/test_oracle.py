import random

import pytest

from refsim.engine import BLOCKED, PRE, RD, WR, REFAB, REFPB, DramCommand, TimingEngine
from refsim.oracle import oracle_check
from refsim.timing import (
    CurrentParams, DensityProfile, DramGeometry, RawTimings, derive_timing,
)

from helpers import (
    planted_fault_histories, planted_fault_timing, random_command, random_stimulus,
    small_geometry, small_timing,
)


def test_empty_history():
    assert oracle_check([], small_geometry(), small_timing()) == []


@pytest.mark.parametrize("refresh_kind,sarp", [
    (REFPB, False), (REFAB, False), (REFPB, True), (REFAB, True), (None, False),
])
def test_engine_oracle_equivalence_small(refresh_kind, sarp):
    geo = small_geometry()
    timing = small_timing()
    eng = TimingEngine(geo, timing, sarp_enabled=sarp)
    history = random_stimulus(eng, random.Random(42), 3000, refresh_kind)
    violations = oracle_check(history, geo, timing, sarp_enabled=sarp)
    assert violations == []
    if refresh_kind == REFAB:
        assert sum(cmd.kind == REFAB for cmd, _ in history) >= 10


def test_engine_oracle_equivalence_realistic_timing():
    geo = DramGeometry(channels=1, ranks_per_channel=2, rows_per_bank=1024)
    timing = derive_timing(DensityProfile.for_density(32), geo,
                           RawTimings(), CurrentParams(), "pb")
    eng = TimingEngine(geo, timing, sarp_enabled=False)
    history = random_stimulus(eng, random.Random(3), 4000, REFPB)
    assert oracle_check(history, geo, timing) == []


@pytest.mark.parametrize("refresh_kind,sarp", [
    (REFPB, False), (REFAB, False), (REFPB, True), (REFAB, True), (None, False),
])
def test_ready_at_agrees_with_oracle(refresh_kind, sarp):
    """Two-sided differential check of the engine against the oracle.

    At every attempt, including reads and writes to closed banks and to
    the wrong row, the engine says the command is ready now exactly when
    the oracle accepts the history extended by it; a finite ready time r
    in the future is a cycle at which the oracle accepts it.
    """
    geo = small_geometry()
    timing = small_timing()
    eng = TimingEngine(geo, timing, sarp_enabled=sarp)
    rng = random.Random(61)
    history = []
    t = 0
    future = 0
    while len(history) < 500:
        t += rng.randint(1, 3)
        roll = rng.random()
        open_banks = [(ri, bi) for ri in range(geo.ranks_per_channel)
                      for bi in range(geo.banks_per_rank)
                      if eng.bank_state(ri, bi).open_row is not None]
        if roll < 0.15:
            cmd = DramCommand(RD if rng.random() < 0.5 else WR, 0,
                              rng.randrange(geo.ranks_per_channel),
                              rng.randrange(geo.banks_per_rank),
                              row=rng.randrange(geo.rows_per_bank))
        elif roll < 0.4 and open_banks:
            # close rows often enough that all-bank refreshes get a chance
            cmd = DramCommand(PRE, 0, *rng.choice(open_banks))
        else:
            cmd = random_command(eng, rng, refresh_kind)
            if cmd is None:
                continue
        ready = eng.ready_at(cmd, t)
        accepted = not oracle_check(history + [(cmd, t)], geo, timing,
                                    sarp_enabled=sarp)
        assert (ready <= t) == accepted, (cmd, t, ready)
        if t < ready < BLOCKED:
            assert not oracle_check(history + [(cmd, ready)], geo, timing,
                                    sarp_enabled=sarp), (cmd, t, ready)
            future += 1
        if accepted:
            eng.issue(cmd, t)
            history.append((cmd, t))
    assert future > 100
    if refresh_kind is not None:
        assert sum(cmd.kind == refresh_kind for cmd, _ in history) >= 10


CASES = planted_fault_histories()


# ids name each case by (name, rule, index) only, as before cases had a sarp flag
@pytest.mark.parametrize("name,rule,cmds,sarp", CASES,
                         ids=[f"{name}-{rule}-cmds{i}"
                              for i, (name, rule, _, _) in enumerate(CASES)])
def test_planted_faults(name, rule, cmds, sarp):
    violations = oracle_check(cmds, small_geometry(), planted_fault_timing(),
                              sarp_enabled=sarp)
    assert violations, f"planted fault not caught: {name}"
    assert violations[0].rule == rule


def test_planted_overlap_yields_exactly_one_violation():
    geo = small_geometry()
    timing = small_timing()
    cmds = [(DramCommand(REFPB, 0, 0, 1), 0), (DramCommand(REFPB, 0, 0, 5), 3)]
    violations = oracle_check(cmds, geo, timing)
    assert len(violations) == 1
    assert violations[0].rule == "refpb.overlap"


def test_unsorted_history_rejected():
    cmds = [(DramCommand(REFPB, 0, 0, 1), 10), (DramCommand(REFPB, 0, 0, 5), 3)]
    with pytest.raises(ValueError):
        oracle_check(cmds, small_geometry(), small_timing())


def test_dram_command_is_an_immutable_record():
    cmd = DramCommand(RD, 1, 0, 3, row=7, column=2)
    assert cmd == DramCommand(RD, 1, 0, 3, 0, 7, 2)
    assert DramCommand(kind=REFAB, channel=0, rank=1) == DramCommand(REFAB, 0, 1)
    assert (cmd.kind, cmd.channel, cmd.rank, cmd.bank, cmd.subarray,
            cmd.row, cmd.column) == (RD, 1, 0, 3, 0, 7, 2)
    pre = DramCommand(PRE, 0, 1)
    assert (pre.bank, pre.subarray, pre.row, pre.column) == (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        cmd.row = 8
    violation = oracle_check([(cmd, 5)], small_geometry(), small_timing())[0]
    assert str(violation) == "[0] cycle 5: RD violates rw.no-open-row"

