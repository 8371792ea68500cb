import subprocess
import sys

import pytest

from refsim.cli import main

CONF = """
[geometry]
channels = 1
ranks_per_channel = 1

[sim]
density = 32
cores = 2
seed = 5
warmup_cycles = 500
measured_cycles = 15000

[workload]
default = random footprint=16MiB read_fraction=0.6 intensity=8
"""


@pytest.fixture
def conf(tmp_path):
    path = tmp_path / "sim.conf"
    path.write_text(CONF)
    return path


def test_single_cell_to_stdout(conf, capsys):
    assert main(["--config", str(conf), "--policy", "pb"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("policy,density_gbit,workload,seed,ws,hs")
    assert lines[1].startswith("pb,32,")


def test_sweep_writes_csv_and_solo_sidecar(conf, tmp_path):
    out = tmp_path / "results.csv"
    rc = main(["--config", str(conf), "--policy", "pb", "--policy", "noref",
               "--density", "32", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    solo = (tmp_path / "results.csv.solo.csv").read_text().strip().splitlines()
    assert solo[0] == "density_gbit,core,workload,seed,alone_ipc"
    assert len(solo) == 3  # one per core, shared by both policies


def test_missing_config_is_exit_1(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.conf")]) == 1


def test_bad_policy_is_exit_1(conf, capsys):
    assert main(["--config", str(conf), "--policy", "banana"]) == 1
    assert "banana" in capsys.readouterr().err
    # a bad later --policy fails before any cell runs
    assert main(["--config", str(conf), "--policy", "pb",
                 "--policy", "banana"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: invalid value for key 'policy': 'banana'" in err


def test_refresh_log_dump(conf, tmp_path):
    log = tmp_path / "refresh.csv"
    rc = main(["--config", str(conf), "--policy", "darp",
               "--out", str(tmp_path / "r.csv"), "--dump-refresh-log", str(log)])
    assert rc == 0
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "cycle,kind,rank,bank,credit_after,category"
    assert len(lines) > 10
    categories = {line.split(",")[5] for line in lines[1:]}
    assert categories <= {"nominal", "postponed", "pulled", "forced"}


def test_cmd_trace_dump_format(conf, tmp_path):
    trace = tmp_path / "cmds.tsv"
    rc = main(["--config", str(conf), "--policy", "ab",
               "--out", str(tmp_path / "r.csv"), "--dump-cmd-trace", str(trace)])
    assert rc == 0
    first = trace.read_text().splitlines()[0].split("\t")
    assert len(first) == 8  # cycle kind ch rank bank subarray row col
    assert first[1] in ("ACT", "PRE", "RD", "WR", "REFab", "REFpb")


def test_cmd_trace_dump_replays_clean_through_oracle(conf, tmp_path):
    from refsim.config import load_config
    from refsim.engine import DramCommand
    from refsim.oracle import oracle_check
    from refsim.simulation import build_timing
    trace = tmp_path / "cmds.tsv"
    rc = main(["--config", str(conf), "--policy", "pb",
               "--out", str(tmp_path / "r.csv"), "--dump-cmd-trace", str(trace)])
    assert rc == 0
    history = []
    for line in trace.read_text().splitlines():
        cycle, kind, ch, rank, bank, sub, row, col = line.split("\t")
        history.append((DramCommand(kind, int(ch), int(rank), int(bank),
                                    int(sub), int(row), int(col)), int(cycle)))
    cfg = load_config(str(conf))
    from dataclasses import replace
    cfg = replace(cfg, policy="pb")
    assert len(history) > 100
    assert oracle_check(history, cfg.geometry, build_timing(cfg)) == []


def test_latency_hist_dump(conf, tmp_path):
    hist = tmp_path / "lat.csv"
    rc = main(["--config", str(conf), "--policy", "noref",
               "--out", str(tmp_path / "r.csv"), "--dump-latency-hist", str(hist)])
    assert rc == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "latency_cycles,count"
    total = sum(int(line.split(",")[1]) for line in lines[1:])
    assert total > 0


def test_parallel_jobs_match_serial(conf, tmp_path):
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}.csv"
        rc = main(["--config", str(conf), "--policy", "pb", "--policy", "ab",
                   "--jobs", jobs, "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_seed_override_and_determinism(conf, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["--config", str(conf), "--policy", "dsarp",
                   "--seed", "42", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_synthetic_override(conf, capsys):
    assert main(["--config", str(conf), "--policy", "noref",
                 "--synthetic", "stream"]) == 0
    assert "stream:" in capsys.readouterr().out


def write_traces(tmp_path, n):
    """One 64-line trace per core, each in row 0 of the core's own bank
    (bank bits start at bit 13 in the test config's address map)."""
    paths = []
    for core in range(n):
        path = tmp_path / f"t{core}.trace"
        path.write_text("".join(f"3 {hex((core << 13) + i * 64)} R\n"
                                for i in range(64)))
        paths.append(str(path))
    return paths


def test_trace_files(conf, tmp_path, capsys):
    argv = ["--config", str(conf), "--policy", "noref"]
    for path in write_traces(tmp_path, 2):        # one per core
        argv += ["--trace", path]
    assert main(argv) == 0
    # distinct traces per core are labelled as a mix
    assert ",mix:trace," in capsys.readouterr().out


def test_shared_trace_file_is_config_error(conf, tmp_path, capsys):
    # two cores replaying one file would hit the same rows: refuse
    tfile, = write_traces(tmp_path, 1)
    assert main(["--config", str(conf), "--policy", "noref",
                 "--trace", tfile]) == 1
    err = capsys.readouterr().err
    assert "cores 0 and 1 would both replay trace" in err
    # the same file under another name is the same file
    assert main(["--config", str(conf), "--policy", "noref", "--trace", tfile,
                 "--trace", f"{tmp_path}/./t0.trace"]) == 1


def test_starved_core_is_metric_error_exit_2(conf, tmp_path, capsys):
    # core 0 streams row hits to row 0 of bank 0 while core 1 misses to
    # row 16 of the same bank: core 1 retires nothing, so its shared IPC
    # is 0 and the weighted speedup is undefined
    from refsim.config import load_config
    from refsim.workload import AddressMap
    amap = AddressMap(load_config(str(conf)).geometry)
    argv = ["--config", str(conf), "--policy", "noref"]
    for core, row in enumerate((0, 16)):
        path = tmp_path / f"t{core}.trace"
        path.write_text("".join(f"3 {hex(amap.encode(0, 0, 0, row, i))} R\n"
                                for i in range(64)))
        argv += ["--trace", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("metric error: shared IPC must be positive")


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "refsim.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--dump-refresh-log" in proc.stdout
