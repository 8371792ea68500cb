"""Per-layer metrics of a traced run, named after refsim's modules.

cProfile times every call into the package.  A few wrappers, installed
from here and never inside src/, count what a profile cannot see: the
size of an audited log or a checked history, whether a controller pass
issued a command, and which simulations were solo runs.  All figures are
per round; a profiled run is slower than an untraced one, so host times
are comparable only between traced runs.
"""

import cProfile
import os
import pstats
import time

import refsim
from refsim import controller, experiment, oracle, refresh, simulation

ENGINE_COMMANDS = ("issue_act", "issue_pre", "issue_rd", "issue_wr",
                   "issue_refpb", "issue_refab")
SCHEDULE = ("_schedule_demand", "_closed_row_precharge", "_refresh_prep")
REFRESH_HOOKS = ("on_cycle", "next_event", "opportunistic")
DUMPS = ("_dump_refresh_log", "_dump_cmd_trace", "_dump_latency_hist")


class LayerTrace:
    def __init__(self):
        self.profiler = cProfile.Profile()
        self.count = dict(passes_issued=0, audit_records=0, oracle_commands=0,
                          solo_runs=0, solo_s=0.0, reads_completed=0,
                          writes_completed=0, writeback_cycles=0,
                          refresh_issued=0, during_writeback=0,
                          parallel_accesses=0, subarray_conflicts=0)
        self._saved = []

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self) -> None:
        count = self.count

        def full_pass(original):
            def wrapper(ctrl, now):
                result = original(ctrl, now)
                if result[0]:
                    count["passes_issued"] += 1
                return result
            return wrapper

        def sim_run(original):
            def wrapper(sim):
                t0 = time.perf_counter()
                stats = original(sim)
                if len(sim.cores) < sim.config.cores:
                    count["solo_runs"] += 1
                    count["solo_s"] += time.perf_counter() - t0
                    return stats
                count["reads_completed"] += stats.completed_reads
                count["writes_completed"] += stats.completed_writes
                count["writeback_cycles"] += stats.writeback_cycles
                count["refresh_issued"] += stats.refresh_total
                count["during_writeback"] += stats.refresh_counts["during_writeback"]
                count["parallel_accesses"] += stats.sarp_parallel_accesses
                count["subarray_conflicts"] += stats.subarray_conflicts
                return stats
            return wrapper

        def audit(original):
            def wrapper(records, *args, **kwargs):
                count["audit_records"] += len(records)
                return original(records, *args, **kwargs)
            return wrapper

        def check(original):
            def wrapper(history, *args, **kwargs):
                count["oracle_commands"] += len(history)
                return original(history, *args, **kwargs)
            return wrapper

        self._patch(controller.ChannelController, "_full_pass", full_pass)
        self._patch(simulation.Simulation, "run", sim_run)
        self._patch(refresh, "retention_audit", audit)
        self._patch(experiment, "retention_audit", audit)
        self._patch(oracle, "oracle_check", check)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _profile(self) -> dict:
        """(module, function) -> [calls, self seconds, inclusive seconds]."""
        package = os.path.dirname(os.path.abspath(refsim.__file__))
        out = {}
        stats = pstats.Stats(self.profiler).stats
        for (filename, _, func), (_, calls, tt, ct, _) in stats.items():
            if os.path.dirname(os.path.abspath(filename)) != package:
                continue
            key = (os.path.basename(filename)[:-3], func)
            entry = out.setdefault(key, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += tt
            entry[2] += ct
        return out

    def metrics(self, rounds: int, untraced_round_s: float,
                traced_s: float) -> dict:
        prof = self._profile()

        def total(module, funcs, field):
            return sum(prof.get((module, f), (0, 0.0, 0.0))[field]
                       for f in funcs)

        def calls(module, *funcs):
            return total(module, funcs, 0)

        def self_s(module, *funcs):
            return total(module, funcs, 1)

        def incl_s(module, *funcs):
            return total(module, funcs, 2)

        def ratio(a, b):
            return a / b if b else 0.0

        ready = [f for (m, f) in prof if m == "engine" and f.endswith("_ready_at")]
        c = self.count
        commands = calls("engine", *ENGINE_COMMANDS)
        passes = calls("controller", "_full_pass")
        records = calls("workload", "_next_record")
        front_end_s = incl_s("workload", "advance")
        oracle_s = incl_s("oracle", "oracle_check")
        # totals over the profiled rounds; reported per round
        totals = {
            "simulation.run_s": (incl_s("simulation", "run"), "s"),
            "simulation.loop_self_s": (self_s("simulation", "_loop"), "s"),
            "controller.ticks": (calls("controller", "tick"), "count"),
            "controller.passes": (passes, "count"),
            "controller.tick_self_s": (self_s("controller", "tick"), "s"),
            "controller.schedule_self_s": (self_s("controller", *SCHEDULE), "s"),
            "engine.ready_at_calls": (calls("engine", *ready), "count"),
            "engine.ready_at_s": (self_s("engine", *ready), "s"),
            "engine.commands": (commands, "count"),
            "refresh.hook_calls": (calls("refresh", *REFRESH_HOOKS), "count"),
            "refresh.hook_s": (incl_s("refresh", *REFRESH_HOOKS), "s"),
            "refresh.audit_records": (c["audit_records"], "count"),
            "refresh.audit_s": (incl_s("refresh", "retention_audit"), "s"),
            "workload.advance_calls": (calls("workload", "advance"), "count"),
            "workload.records": (records, "count"),
            "workload.front_end_s": (front_end_s, "s"),
            "workload.parse_s": (incl_s("workload", "parse_trace"), "s"),
            "experiment.solo_runs": (c["solo_runs"], "count"),
            "experiment.solo_s": (c["solo_s"], "s"),
            "experiment.dump_s": (incl_s("experiment", *DUMPS), "s"),
            "oracle.commands": (c["oracle_commands"], "count"),
            "oracle.check_s": (oracle_s, "s"),
            "controller.reads_completed": (c["reads_completed"], "count"),
            "controller.writes_completed": (c["writes_completed"], "count"),
            "controller.writeback_cycles": (c["writeback_cycles"], "count"),
            "refresh.issued": (c["refresh_issued"], "count"),
            "refresh.during_writeback": (c["during_writeback"], "count"),
            "sarp.parallel_accesses": (c["parallel_accesses"], "count"),
            "sarp.subarray_conflicts": (c["subarray_conflicts"], "count"),
        }
        out = {}
        for name, (value, unit) in totals.items():
            value = value / rounds
            if unit == "count" and value.is_integer():
                value = int(value)
            out[name] = {"value": value, "unit": unit}
        ratios = {
            "controller.pass_issue_ratio": (ratio(c["passes_issued"], passes), "ratio"),
            # host time of an untraced round per DRAM command it issued
            "engine.host_us_per_command": (ratio(untraced_round_s * 1e6, commands / rounds), "us"),
            "workload.records_per_s": (ratio(records, front_end_s), "1/s"),
            "oracle.commands_per_s": (ratio(c["oracle_commands"], oracle_s), "1/s"),
            "trace.overhead_ratio": (ratio(traced_s / rounds, untraced_round_s), "ratio"),
        }
        for name, (value, unit) in ratios.items():
            out[name] = {"value": value, "unit": unit}
        return out
