"""Command-line interface: ``repro-slb``.

Six sub-commands:

* ``list`` — show the available experiments (one per paper figure/table);
* ``run <experiment-id>`` — run one experiment and print its rows and
  chart (``--scale tiny|quick|paper``, default ``quick``; ``--mode`` overrides
  the execution mode, exit 2 for an experiment whose config has none);
* ``simulate`` — ad-hoc simulation of one grouping scheme on a Zipf
  workload (handy for quick what-if questions); ``--rescale
  "join@5000,leave@12000,fail@15000"`` replays an elastic worker schedule
  mid-stream and reports the migration costs;
* ``scenario`` — inspect and run the scenario catalog: ``scenario list``
  names the cataloged traffic patterns, ``scenario show <name>`` prints
  one spec (pattern, seeds, render, expected bounds), and ``scenario run
  <name>`` simulates it under one scheme and checks the realised metrics
  against the spec's ``expected:`` block (exit 1 on violation);
* ``cluster-run`` — route one Zipf stream through the real multi-process
  cluster runtime (source + N worker processes over shared-memory rings)
  and report aggregate throughput, per-worker counts and imbalance;
  ``--validate`` additionally checks the realised imbalance against the
  simulator's prediction (exit 1 on deviation beyond tolerance);
* ``suite`` — orchestrate the whole reproduction: ``suite run`` executes
  every registered experiment across a process pool with content-addressed
  caching under ``results/``, ``suite report`` summarises the store, and
  ``suite clean`` empties it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.experiments.common import print_result
from repro.experiments.descriptor import SCALES
from repro.experiments.registry import get_experiment, list_experiments
from repro.simulation.runner import run_simulation
from repro.workloads.zipf_stream import ZipfWorkload

#: Help text shared by every ``--mode`` flag.
_MODE_HELP = (
    "execution mode spec: scalar or columnar[:N] (e.g. columnar:4096; "
    "batched[:N] is read as columnar[:N]); results are identical for "
    "every mode, only the throughput changes"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-slb",
        description=(
            "Reproduction toolkit for 'When Two Choices Are not Enough' "
            "(Nasir et al., ICDE 2016)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list the available experiments (one per paper figure/table)"
    )

    run_parser = subparsers.add_parser(
        "run", help="run one experiment and print its rows"
    )
    run_parser.add_argument(
        "experiment", help="experiment id, e.g. fig1, fig13, table1 (see `list`)"
    )
    run_parser.add_argument(
        "--scale",
        choices=SCALES,
        default="quick",
        help=(
            "parameter scale: tiny (smoke test, seconds), quick (the "
            "default, laptop-sized) or paper (the paper's exact parameters)"
        ),
    )
    run_parser.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="also write the rows to PATH (.csv or .json)",
    )
    run_parser.add_argument("--mode", default=None, help=_MODE_HELP)

    sim_parser = subparsers.add_parser(
        "simulate", help="ad-hoc simulation of one scheme on a Zipf stream"
    )
    sim_parser.add_argument(
        "--scheme",
        default="D-C",
        help=(
            "grouping scheme name from the partitioner registry "
            "(KG, SG, PKG, D-C, W-C, RR, GREEDY-D, FIXED-D, CH, AD); "
            "default: D-C"
        ),
    )
    sim_parser.add_argument(
        "--workers", type=int, default=50,
        help="number of downstream workers n (default: 50)",
    )
    sim_parser.add_argument(
        "--sources", type=int, default=5,
        help="number of independent sources s (default: 5, as in the paper)",
    )
    sim_parser.add_argument(
        "--skew", type=float, default=1.5,
        help="Zipf exponent z of the key distribution (default: 1.5)",
    )
    sim_parser.add_argument(
        "--keys", type=int, default=10_000,
        help="key-space size |K| of the Zipf stream (default: 10000)",
    )
    sim_parser.add_argument(
        "--messages", type=int, default=500_000,
        help="stream length m in messages (default: 500000)",
    )
    sim_parser.add_argument(
        "--seed", type=int, default=0,
        help="base RNG seed for the workload and the schemes (default: 0)",
    )
    sim_parser.add_argument("--mode", default=None, help=_MODE_HELP)
    sim_parser.add_argument(
        "--adaptive-policy",
        metavar="SPEC",
        default=None,
        help=(
            "switch-policy knobs for the adaptive scheme (--scheme AD), "
            "e.g. 'ladder=PKG>D-C>W-C,enter_skew=1.5,dwell=8000'; "
            "rejected for static schemes"
        ),
    )
    sim_parser.add_argument(
        "--rescale",
        metavar="SPEC",
        default=None,
        help=(
            "elastic rescale schedule, e.g. "
            "'join@5000,leave@12000,fail@15000' (offsets in messages); "
            "workers join at the next free id, leave/fail retire the "
            "highest id (default: no rescaling)"
        ),
    )
    sim_parser.add_argument(
        "--rescale-policy",
        choices=("rehash", "migrate", "remap"),
        default="migrate",
        help=(
            "how rescale events are executed: stop-the-world re-hash, "
            "incremental migration or candidate-set remap (default: migrate)"
        ),
    )
    sim_parser.add_argument(
        "--migration-window",
        type=int,
        default=1000,
        metavar="N",
        help=(
            "transition window in tuples during which tuples to moved keys "
            "count as misrouted (migrate policy only; default: 1000)"
        ),
    )

    scenario_parser = subparsers.add_parser(
        "scenario",
        help="inspect and run the scenario catalog (seeded traffic patterns)",
    )
    scenario_commands = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )
    scenario_commands.add_parser(
        "list", help="list the cataloged scenarios with their patterns"
    )
    scenario_show = scenario_commands.add_parser(
        "show", help="print one scenario spec (pattern, seeds, expected bounds)"
    )
    scenario_show.add_argument("name", help="scenario name (see `scenario list`)")
    scenario_run = scenario_commands.add_parser(
        "run",
        help=(
            "simulate one scenario under one scheme and check the result "
            "against the spec's expected bounds (exit 1 on violation)"
        ),
    )
    scenario_run.add_argument("name", help="scenario name (see `scenario list`)")
    scenario_run.add_argument(
        "--scheme",
        default="PKG",
        help="grouping scheme to route the scenario with (default: PKG)",
    )
    scenario_run.add_argument(
        "--workers", type=int, default=16,
        help="number of downstream workers n (default: 16)",
    )
    scenario_run.add_argument(
        "--sources", type=int, default=5,
        help="number of independent sources s (default: 5)",
    )
    scenario_run.add_argument(
        "--messages", type=int, default=100_000,
        help="stream length m in messages (default: 100000)",
    )
    scenario_run.add_argument(
        "--keys", type=int, default=5_000,
        help="key-space size |K| of the scenario (default: 5000)",
    )
    scenario_run.add_argument(
        "--seed", type=int, default=None,
        help=(
            "override the scenario's cataloged base seed for an ad-hoc "
            "rerun; component seeds are re-derived, and the expected "
            "bounds are still checked (they are calibrated to hold "
            "across seeds)"
        ),
    )
    scenario_run.add_argument("--mode", default=None, help=_MODE_HELP)

    cluster_parser = subparsers.add_parser(
        "cluster-run",
        help=(
            "route one Zipf stream through the real multi-process cluster "
            "runtime (shared-memory rings) and report the throughput"
        ),
    )
    cluster_parser.add_argument(
        "--scheme",
        default="PKG",
        help=(
            "grouping scheme name from the partitioner registry "
            "(KG, PKG, D-C, W-C, RR, ...); default: PKG"
        ),
    )
    cluster_parser.add_argument(
        "--workers", type=int, default=4,
        help="number of worker processes n (default: 4)",
    )
    cluster_parser.add_argument(
        "--messages", type=int, default=50_000,
        help="stream length m in messages (default: 50000)",
    )
    cluster_parser.add_argument(
        "--keys", type=int, default=5_000,
        help="key-space size |K| of the Zipf stream (default: 5000)",
    )
    cluster_parser.add_argument(
        "--skew", type=float, default=1.4,
        help="Zipf exponent z of the key distribution (default: 1.4)",
    )
    cluster_parser.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for the workload and the scheme (default: 0)",
    )
    cluster_parser.add_argument(
        "--service-ns", type=int, default=10_000,
        help=(
            "modeled per-message service time in nanoseconds — each worker "
            "blocks this long per message, standing in for an I/O-bound "
            "operator (default: 10000)"
        ),
    )
    cluster_parser.add_argument(
        "--mode", default="columnar:512",
        help=(
            "execution mode spec; the cluster runtime is columnar-only, so "
            "this selects the frame size, e.g. columnar:4096 "
            "(default: columnar:512)"
        ),
    )
    cluster_parser.add_argument(
        "--validate",
        action="store_true",
        help=(
            "also simulate the identical workload and check the realised "
            "run against the prediction: bit-exact delivery on a clean "
            "run, routing match plus exact-once conservation on a "
            "recovered one (exit 1 on violation)"
        ),
    )
    cluster_parser.add_argument(
        "--inject",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault plan, e.g. 'crash@w2:5000,slow@w0:3x' — "
            "kinds crash/hang/slow/delta_drop, '!' suffix re-arms the "
            "fault in every respawned incarnation (see docs/"
            "fault_tolerance.md)"
        ),
    )
    cluster_parser.add_argument(
        "--max-restarts", type=int, default=1,
        help=(
            "supervised respawns allowed per worker slot before its share "
            "is remapped to the survivors (default: 1)"
        ),
    )
    cluster_parser.add_argument(
        "--ring-words", type=int, default=None, metavar="N",
        help=(
            "per-worker ring capacity in int64 words (default: 16384); "
            "small rings backpressure the source, which keeps injected "
            "faults landing mid-stream instead of after a fully buffered "
            "stream has already been scattered"
        ),
    )
    cluster_parser.add_argument(
        "--no-degrade",
        action="store_true",
        help=(
            "fail the run (exit 1) when a worker exhausts its restart "
            "budget instead of degrading onto the survivors"
        ),
    )

    suite_parser = subparsers.add_parser(
        "suite",
        help="orchestrate the full reproduction with caching under results/",
    )
    suite_commands = suite_parser.add_subparsers(dest="suite_command", required=True)

    suite_run = suite_commands.add_parser(
        "run",
        help=(
            "run every registered experiment (or --experiments subset) in "
            "parallel; cells already in the store are cache hits, so an "
            "interrupted run resumes where it stopped"
        ),
    )
    suite_run.add_argument(
        "--scale",
        choices=SCALES,
        default="quick",
        help="parameter scale of every cell (default: quick)",
    )
    suite_run.add_argument(
        "--experiments",
        nargs="+",
        metavar="ID",
        default=None,
        help="subset of experiment ids to run (default: all registered)",
    )
    suite_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "worker processes; 1 runs inline, default picks "
            "min(cells, cpu count)"
        ),
    )
    suite_run.add_argument(
        "--force",
        action="store_true",
        help="recompute every cell even when its record is already stored",
    )
    suite_run.add_argument(
        "--results-dir",
        metavar="PATH",
        default=None,
        help="results store location (default: results/)",
    )
    suite_run.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="also write the run summary rows to PATH (.csv or .json)",
    )

    suite_report = suite_commands.add_parser(
        "report", help="summarise the records in the results store"
    )
    suite_report.add_argument(
        "--scale",
        choices=SCALES,
        default=None,
        help="only report records of this scale (default: all)",
    )
    suite_report.add_argument(
        "--charts",
        action="store_true",
        help="also render each experiment's ASCII figure from its rows",
    )
    suite_report.add_argument(
        "--results-dir",
        metavar="PATH",
        default=None,
        help="results store location (default: results/)",
    )
    suite_report.add_argument(
        "--export",
        metavar="PATH",
        default=None,
        help="also write the summary rows to PATH (.csv or .json)",
    )

    suite_clean = suite_commands.add_parser(
        "clean", help="delete stored records (all, or --experiments subset)"
    )
    suite_clean.add_argument(
        "--experiments",
        nargs="+",
        metavar="ID",
        default=None,
        help="only delete records of these experiment ids (default: all)",
    )
    suite_clean.add_argument(
        "--results-dir",
        metavar="PATH",
        default=None,
        help="results store location (default: results/)",
    )

    return parser


def _scenario_main(args: argparse.Namespace) -> int:
    from repro.exceptions import ScenarioError
    from repro.scenarios.catalog import build_workload, check_result, get_scenario, list_scenarios

    if args.scenario_command == "list":
        for name in list_scenarios():
            spec = get_scenario(name)
            render = spec.render.style
            print(f"{name:20s}  pattern={spec.pattern:18s}  render={render:14s}  {spec.description}")
        return 0

    if args.scenario_command == "show":
        try:
            spec = get_scenario(args.name)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"name: {spec.name}")
        print(f"pattern: {spec.pattern}")
        print(f"seed: {spec.seed}")
        print(f"  truth seed:  {spec.component_seed('truth')}")
        print(f"  render seed: {spec.component_seed('render')}")
        if spec.truth_options:
            print(f"truth options: {dict(spec.truth_options)}")
        print(f"render: {spec.render.style}"
              + (f" {dict(spec.render.options)}" if spec.render.options else ""))
        assert spec.expected is not None  # catalog entries always carry bounds
        print("expected:")
        for bound in spec.expected._BOUND_NAMES:
            value = getattr(spec.expected, bound)
            if value is not None:
                print(f"  {bound}: {value}")
        for scheme, overrides in spec.expected.per_scheme.items():
            print(f"  per_scheme {scheme}: {dict(overrides)}")
        if spec.description:
            print(f"description: {spec.description}")
        return 0

    if args.scenario_command == "run":
        try:
            spec = get_scenario(args.name)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.seed is not None:
            import dataclasses

            spec = dataclasses.replace(spec, seed=args.seed)
        workload = build_workload(spec, num_messages=args.messages, num_keys=args.keys)
        result = run_simulation(
            workload,
            scheme=args.scheme,
            num_workers=args.workers,
            num_sources=args.sources,
            mode=args.mode,
        )
        print(f"scenario: {spec.name} ({spec.pattern}), scheme {args.scheme}, "
              f"{args.workers} workers, {args.messages} messages, "
              f"seed {spec.seed}")
        print(f"imbalance: {result.final_imbalance:.6f}")
        print(f"replication: {result.replication_factor:.4f}")
        print(f"p99_load_factor: {result.p99_load_factor:.4f}")
        violations = check_result(spec, result, scheme=args.scheme)
        if violations:
            for violation in violations:
                print(f"VIOLATED {violation}")
            return 1
        print("within expected bounds")
        return 0

    raise AssertionError(
        f"unknown scenario command {args.scenario_command!r}"
    )  # pragma: no cover


#: ``cluster-run`` exit code for a run that *completed*, but only by
#: degrading a worker slot onto the survivors (restart budget exhausted).
#: Distinct from 0 (clean / fully recovered) and 1 (failed) so chaos
#: drills can assert the degradation path precisely.
EXIT_DEGRADED = 3


def _cluster_main(args: argparse.Namespace) -> int:
    from repro.exceptions import ClusterRuntimeError
    from repro.runtime import ClusterConfig, run_cluster, validate_against_simulation

    try:
        config = ClusterConfig(
            scheme=args.scheme,
            num_workers=args.workers,
            num_messages=args.messages,
            num_keys=args.keys,
            skew=args.skew,
            seed=args.seed,
            service_ns=args.service_ns,
            mode=args.mode,
            inject=args.inject,
            max_restarts=args.max_restarts,
            degrade_when_exhausted=not args.no_degrade,
            **(
                {"ring_capacity_words": args.ring_words}
                if args.ring_words is not None
                else {}
            ),
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_cluster(config)
    except ClusterRuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, value in result.summary().items():
        print(f"{name}: {value}")
    for line in result.recovery_log:
        print(f"recovery: {line}")
    exit_code = EXIT_DEGRADED if result.degraded else 0
    if not args.validate:
        return exit_code
    report = validate_against_simulation(config, result)
    print(f"simulated_imbalance: {report['simulated_imbalance']:.6f}")
    print(f"imbalance_rel_diff: {report['relative_difference']:.6f}")
    print(f"routing_match_simulation: {report['routing_match']}")
    print(f"delivery_exact: {report['delivery_exact']}")
    print(f"conservation_ok: {report['conservation_ok']}")
    if not report["ok"]:
        what = (
            "recovered run violates routing/conservation checks"
            if report["recovered"]
            else "realised run deviates from the simulator beyond tolerance"
        )
        print(f"VIOLATED {what}")
        return 1
    print(
        "recovered run conserves the stream exactly"
        if report["recovered"]
        else "within simulator tolerance"
    )
    return exit_code


def _suite_main(args: argparse.Namespace) -> int:
    from repro.suite.orchestrator import run_suite
    from repro.suite.report import export_report, render_report
    from repro.suite.store import open_store

    store = open_store(args.results_dir)

    if args.suite_command == "run":
        failures: list = []

        def progress(outcome, done, total) -> None:
            note = f"{outcome.elapsed_seconds:.2f}s"
            if outcome.status == "failed":
                note = outcome.error_summary or "failed"
                failures.append(outcome)
            print(
                f"[{done:2d}/{total}] {outcome.experiment_id:8s} "
                f"{outcome.status:8s} {note}"
            )

        summary = run_suite(
            experiment_ids=args.experiments,
            scale=args.scale,
            jobs=args.jobs,
            store=store,
            force=args.force,
            progress=progress,
        )
        print()
        print_result(summary.as_result())
        for outcome in failures:
            print(f"\nfull traceback of {outcome.experiment_id}:\n{outcome.error}")
        if args.export:
            from repro.reporting.export import write_result

            print(f"summary written to {write_result(summary.as_result(), args.export)}")
        return 0 if summary.ok else 1

    if args.suite_command == "report":
        print(render_report(store, scale=args.scale, charts=args.charts))
        if args.export:
            print(f"summary written to {export_report(store, args.export, scale=args.scale)}")
        return 0

    if args.suite_command == "clean":
        removed = store.clear(args.experiments)
        print(f"removed {removed} record(s) from {store.root}/")
        return 0

    raise AssertionError(f"unknown suite command {args.suite_command!r}")  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-slb`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in list_experiments():
            descriptor = get_experiment(experiment_id)
            print(f"{experiment_id:8s}  {descriptor.artifact:9s}  {descriptor.title}")
        return 0

    if args.command == "run":
        descriptor = get_experiment(args.experiment)
        try:
            config = descriptor.configure(args.scale, mode=args.mode)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = descriptor.run(config)
        print_result(result)
        chart = descriptor.output.render(result)
        if chart:
            print(chart)
        if args.export:
            from repro.reporting.export import write_result

            written = write_result(result, args.export)
            print(f"rows written to {written}")
        return 0

    if args.command == "simulate":
        workload = ZipfWorkload(
            exponent=args.skew,
            num_keys=args.keys,
            num_messages=args.messages,
            seed=args.seed,
        )
        scheme_options = {}
        if args.adaptive_policy is not None:
            from repro.partitioning.registry import canonical_name

            if canonical_name(args.scheme) != "AD":
                print(
                    "error: --adaptive-policy only applies to --scheme AD",
                    file=sys.stderr,
                )
                return 2
            scheme_options["policy"] = args.adaptive_policy
        result = run_simulation(
            workload,
            scheme=args.scheme,
            num_workers=args.workers,
            num_sources=args.sources,
            seed=args.seed,
            scheme_options=scheme_options,
            mode=args.mode,
            rescale_plan=args.rescale,
            rescale_policy=args.rescale_policy,
            migration_window=args.migration_window,
        )
        for name, value in result.summary().items():
            print(f"{name}: {value}")
        for switch in result.switch_log:
            kind = "retune" if switch["from_scheme"] == switch["to_scheme"] else "switch"
            print(
                f"{kind} source {switch['source']}@{switch['position']}: "
                f"{switch['from_scheme']}->{switch['to_scheme']}, "
                f"{switch['keys_moved']} keys moved, "
                f"{switch['entries_migrated']} entries migrated"
            )
        if result.migration is not None:
            for record in result.migration.events:
                print(
                    f"rescale {record.kind}@{record.offset}: "
                    f"{record.old_num_workers}->{record.new_num_workers} workers, "
                    f"{record.keys_moved} keys moved, "
                    f"{record.entries_migrated} entries migrated, "
                    f"{record.entries_lost} entries lost, "
                    f"{record.tuples_misrouted} tuples misrouted"
                )
        return 0

    if args.command == "cluster-run":
        return _cluster_main(args)

    if args.command == "scenario":
        return _scenario_main(args)

    if args.command == "suite":
        return _suite_main(args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
