"""Whole-system simulation: cores driving per-channel controllers.

One Simulation owns everything for a single (policy, density, workload)
cell and is single-threaded; independent instances can run in parallel
processes.  Core clocks run at a fixed 6:1 ratio to the DRAM command
clock.  Warmup cycles run with full fidelity, then counters reset and the
measured window begins; the refresh log spans the whole run so retention
audits see an unbroken schedule.
"""

import itertools
import os

from .config import CORE_CLOCK_RATIO, SimConfig, WorkloadSpec
from .controller import ChannelController
from .engine import TimingEngine
from .errors import ConfigError
from .metrics import SimStats
from .refresh import make_policy
from .timing import derive_timing, fgr_timing, policy_row
from .workload import (AddressMap, Core, open_trace, parse_trace,
                       scatter_pages, synth_random, synth_stream)


def build_timing(config: SimConfig):
    timing = derive_timing(config.profile(), config.geometry,
                           config.raw_timings, config.currents, config.policy)
    return fgr_timing(timing, policy_row(config.policy).fgr)


def _pow2_ceil(n: int) -> int:
    return 1 << (n - 1).bit_length()


class _LoopingTrace:
    """Restarts a file-backed trace when it runs out (synthetic streams
    never end)."""

    def __init__(self, path: str):
        self.path = path
        self._fh = open_trace(path)
        self._it = parse_trace(self._fh)

    def __iter__(self):
        return self

    def __next__(self):
        rec = next(self._it, None)
        if rec is None:
            self._fh.close()
            self._fh = open_trace(self.path)
            self._it = parse_trace(self._fh)
            rec = next(self._it, None)
            if rec is None:
                raise ConfigError(f"trace {self.path} contains no records")
        return rec


def _check_distinct_traces(config: SimConfig) -> None:
    """Trace-fed cores get no per-core base offset or page scatter, so two
    cores replaying one file would silently share the same rows."""
    owner = {}
    for core in range(config.cores):
        spec = config.workload_for(core)
        if spec.kind != "trace":
            continue
        path = os.path.realpath(spec.path)
        if path in owner:
            raise ConfigError(
                f"cores {owner[path]} and {core} would both replay trace "
                f"{spec.path}; give every core its own trace file")
        owner[path] = core


def make_trace_stream(spec: WorkloadSpec, seed: int, base: int,
                      total_address_bits: int = 0):
    if spec.kind == "trace":
        return _LoopingTrace(spec.path)
    if spec.kind == "random":
        stream = synth_random(seed, spec.footprint, spec.read_fraction,
                              spec.intensity, base)
    else:
        stream = synth_stream(seed, spec.footprint, spec.stride, base)
    if spec.scatter and total_address_bits:
        stream = scatter_pages(stream, total_address_bits)
    return stream


class Simulation:
    def __init__(self, config: SimConfig, core_indices=None,
                 enable_cmd_log: bool = False):
        _check_distinct_traces(config)
        self.config = config
        self.timing = build_timing(config)
        geo = config.geometry
        sarp = policy_row(config.policy).sarp
        self.engines = []
        self.controllers = []
        for ch in range(geo.channels):
            engine = TimingEngine(geo, self.timing, ch, sarp)
            if enable_cmd_log:
                engine.enable_cmd_log()
            policy = make_policy(config.policy, geo, self.timing,
                                 seed=config.seed * 1009 + ch)
            self.engines.append(engine)
            self.controllers.append(ChannelController(
                engine, policy,
                read_capacity=config.read_queue_capacity,
                write_capacity=config.write_queue_capacity,
                low_watermark=config.low_watermark,
                high_watermark=config.high_watermark))

        if core_indices is None:
            core_indices = range(config.cores)
        self.core_indices = list(core_indices)
        self.addr_map = AddressMap(geo)
        id_counter = itertools.count()
        footprints = [config.workload_for(i).footprint for i in range(config.cores)]
        slice_bytes = _pow2_ceil(max(footprints))
        self.cores = []
        for idx in self.core_indices:
            spec = config.workload_for(idx)
            stream = make_trace_stream(spec, seed=config.seed * 100003 + idx,
                                       base=idx * slice_bytes,
                                       total_address_bits=self.addr_map.total_bits)
            self.cores.append(Core(idx, stream, self.addr_map,
                                   self.controllers, CORE_CLOCK_RATIO, id_counter))
        self.now = 0

    def _loop(self, cycles: int) -> None:
        controllers = self.controllers
        cores = self.cores
        ratio = CORE_CLOCK_RATIO
        end = self.now + cycles
        for now in range(self.now, end):
            for ctrl in controllers:
                ctrl.tick(now)
            nxt = now + 1
            for core in cores:
                # a core waiting on read returns has nothing to do
                if core.blocked_returns:
                    core.core_cycle = nxt * ratio
                else:
                    core.advance(nxt)
        self.now = end

    def run(self) -> SimStats:
        self._loop(self.config.warmup_cycles)
        for engine in self.engines:
            engine.reset_stats(self.now)
        for ctrl in self.controllers:
            ctrl.stats.reset()
        snapshots = [core.snapshot() for core in self.cores]
        self._loop(self.config.measured_cycles)
        for ctrl in self.controllers:
            ctrl.drain_pending_returns(self.now)
        return self._collect(snapshots)

    def _collect(self, snapshots) -> SimStats:
        stats = SimStats()
        stats.dram_cycles = self.config.measured_cycles
        geo = self.config.geometry
        stats.rank_count = geo.channels * geo.ranks_per_channel
        for core, snap in zip(self.cores, snapshots):
            end = core.snapshot()
            stats.core_instructions.append(end[0] - snap[0])
            stats.core_cycles.append(end[1] - snap[1])
        stats.refresh_counts = {"nominal": 0, "postponed": 0, "pulled": 0,
                                "forced": 0, "during_writeback": 0}
        for engine in self.engines:
            stats.n_act += engine.n_act
            stats.n_pre += engine.n_pre
            stats.n_rd += engine.n_rd
            stats.n_wr += engine.n_wr
            stats.n_refab += engine.n_refab
            stats.n_refpb += engine.n_refpb
            stats.refab_cycles += engine.refab_cycles
            stats.refpb_cycles += engine.refpb_cycles
            stats.rank_busy_cycles += engine.busy_cycles_at(self.now)
        for ctrl in self.controllers:
            st = ctrl.stats
            stats.completed_reads += st.completed_reads
            stats.completed_writes += st.completed_writes
            stats.read_latency_total += st.read_latency_total
            for latency, count in st.read_latency_hist.items():
                stats.read_latency_hist[latency] = \
                    stats.read_latency_hist.get(latency, 0) + count
            for key, count in st.refresh_counts.items():
                stats.refresh_counts[key] += count
            stats.subarray_conflicts += st.subarray_conflicts
            stats.sarp_parallel_accesses += st.sarp_parallel_accesses
            stats.writeback_cycles += st.writeback_cycles
        return stats

    def refresh_logs(self):
        """Whole-run refresh records per channel (survives the warmup reset)."""
        return [ctrl.stats.refresh_log for ctrl in self.controllers]

    def command_logs(self):
        return [engine.cmd_log for engine in self.engines]
