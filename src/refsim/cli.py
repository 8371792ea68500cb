"""Command-line entry point.

    simulate --config FILE [--policy P ...] [--density D ...] [--seed N]
             [--out results.csv] [--dump-refresh-log FILE]
             [--dump-cmd-trace FILE] [--dump-latency-hist FILE]
             [--trace FILE ...] [--synthetic random|stream]
             [--warmup CYCLES] [--measure CYCLES] [--cores N] [--jobs N]

Exit codes: 0 success, 1 configuration error, 2 simulation assertion or
metric error (e.g. a core that retired nothing), 3 audit failure.
"""

import argparse
import sys
from dataclasses import replace

from .config import SimConfig, WorkloadSpec, load_config
from .errors import AuditError, ConfigError, MetricError, SimulationError
from .experiment import SOLO_COLUMNS, rows_to_csv, run_experiment
from .timing import POLICY_KINDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Trace-driven cycle-level DRAM refresh-policy simulator.")
    parser.add_argument("--config", metavar="FILE",
                        help="config file (omit to use built-in defaults)")
    parser.add_argument("--policy", action="append", metavar="P",
                        help=f"policy to sweep, repeatable; one of {', '.join(POLICY_KINDS)}")
    parser.add_argument("--density", action="append", type=int, metavar="D",
                        help="DRAM density in Gbit, repeatable (8, 16, 32)")
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument("--out", metavar="FILE", help="results CSV (default stdout)")
    parser.add_argument("--dump-refresh-log", metavar="FILE",
                        help="write the refresh command log as CSV")
    parser.add_argument("--dump-cmd-trace", metavar="FILE",
                        help="write every DRAM command, tab-separated "
                             "(also re-validates the history)")
    parser.add_argument("--dump-latency-hist", metavar="FILE",
                        help="write the read-latency histogram as CSV")
    parser.add_argument("--trace", action="append", metavar="FILE",
                        help="trace file per core, repeatable (one per core: two "
                             "cores may not replay the same file)")
    parser.add_argument("--synthetic", choices=("random", "stream"),
                        help="use a synthetic workload on every core")
    parser.add_argument("--warmup", type=int, metavar="CYCLES",
                        help="override warmup cycles")
    parser.add_argument("--measure", type=int, metavar="CYCLES",
                        help="override measured cycles")
    parser.add_argument("--cores", type=int, metavar="N", help="override core count")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run sweep cells in N parallel processes")
    return parser


def apply_overrides(config: SimConfig, args) -> SimConfig:
    fields = {}
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.warmup is not None:
        fields["warmup_cycles"] = args.warmup
    if args.measure is not None:
        fields["measured_cycles"] = args.measure
    if args.cores is not None:
        fields["cores"] = args.cores
    if args.synthetic:
        fields["default_workload"] = replace(config.default_workload,
                                             kind=args.synthetic, path=None)
        fields["workloads"] = {}
    if args.trace:
        cores = fields.get("cores", config.cores)
        fields["workloads"] = {
            i: WorkloadSpec(kind="trace", path=args.trace[i % len(args.trace)])
            for i in range(cores)}
    if args.policy:
        fields["policy"] = args.policy[0]
    if args.density:
        fields["density"] = args.density[0]
    return replace(config, **fields)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else SimConfig()
        config = apply_overrides(config, args)
        rows, solo_rows = run_experiment(
            config,
            policies=args.policy,
            densities=args.density,
            jobs=args.jobs,
            dump_refresh_log=args.dump_refresh_log,
            dump_cmd_trace=args.dump_cmd_trace,
            dump_latency_hist=args.dump_latency_hist)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"simulation assertion: {exc}", file=sys.stderr)
        return 2
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 3
    except MetricError as exc:
        print(f"metric error: {exc}", file=sys.stderr)
        return 2
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".solo.csv", "w") as fh:
            fh.write(rows_to_csv(solo_rows, SOLO_COLUMNS))
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
