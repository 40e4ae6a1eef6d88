"""The traced run: where a trial's time goes, layer by layer.

The harness records spans around its own calls into each layer's public
functions (nothing under ``src/`` is edited or patched):

* the workload's *trial* (``run_simulation`` or ``run_cluster``) and the same
  stream on the other substrate (:meth:`jobs.Job.twin`);
* a harness-driven *pass* that generates and routes the stream exactly as
  that substrate does — fresh partitioners, one per source, over the strided
  shares of every chunk — whose load vector must equal the oracle's;
* standalone probes of the hashing, sketch, solver, ring and dictionary-delta
  layers over the same stream.

What a trial spends outside ``generate`` and ``route`` is reported as its own
metric (``simulation.engine_self_*``, ``runtime.transport_remainder_*``)
rather than hidden, so pass spans plus remainder equal the trial by
construction.  ``partitioning.select_self_*`` subtracts the standalone
hashing and sketch probes from ``route``: an estimate — exact nesting needs
spans inside the program (ROADMAP item 4).  Every timed value is expressed in
nominal-machine ns (see ``calib.py``); counts are exact.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

import calib
from harness import Metric, Trials, scaled_rounds, summary
from jobs import SCHEMES, TRACE_ROUNDS, Job, Outcome
from tracing import Tracer, seconds

from repro.analysis import find_optimal_choices, theta_range
from repro.hashing import HashFamily
from repro.partitioning import create_partitioner
from repro.partitioning.head_tail import DEFAULT_SKETCH_SLACK
from repro.runtime.ring import FRAME_HEADER_WORDS, SpscRing, ring_words
from repro.runtime.worker import DictionaryReplica
from repro.sketches import SpaceSaving

#: Messages a head/tail partitioner routes before it trusts its sketch.
SKETCH_WARMUP = 100

#: Solver calls timed per probe (one call is microseconds).
SOLVER_CALLS = 20


def nominal_ns(wall_s: float, units: int, calib_s: float | None) -> float:
    """``wall_s / units`` in ns — nominal-machine ns when ``calib_s`` is given."""
    scale = calib.speed(calib_s) if calib_s is not None else 1.0
    return wall_s / scale / units * 1e9


def shares(view: Job, batch, shift: int = 0):
    """One chunk dealt round-robin over the sources, as the engine deals it."""
    sources = view.num_sources
    offsets = [(source - shift) % sources for source in range(sources)]
    if view.columnar:
        return [batch.strided(offset, sources) for offset in offsets]
    return [batch[offset::sources] for offset in offsets]


def drive(view: Job, scheme: str, seed: int, tracer: Tracer, trial: str):
    """Generate and route the stream as ``view``'s substrate does.

    Returns ``(loads, generate_seconds, route_seconds)``.
    """
    partitioners = [
        create_partitioner(scheme, num_workers=view.num_workers, seed=0)
        for _ in range(view.num_sources)
    ]
    batches = view.batches(seed)
    generate_s = route_s = 0.0
    index = 0
    while True:
        with tracer.span("workloads.generate", trial) as generated:
            batch = next(batches, None)
        generate_s += seconds(generated)
        if batch is None:
            break
        generated["counts"]["messages"] = len(batch)
        dealt = shares(view, batch, index % view.num_sources)
        with tracer.span(f"partitioning.route.{scheme}", trial, messages=len(batch)) as routed:
            for partitioner, share in zip(partitioners, dealt):
                # The engine asks for head flags, the runtime's source does not.
                flags = None if view.on_cluster else []
                if view.columnar:
                    partitioner.route_batch_columnar(share, head_flags=flags)
                else:
                    partitioner.route_batch(share, head_flags=flags)
        route_s += seconds(routed)
        index += len(batch)
    loads = [sum(column) for column in zip(*(p.local_loads for p in partitioners))]
    return loads, generate_s, route_s


class TracedRun:
    """The traced rounds of one workload and the samples they produce."""

    def __init__(self, job: Job, seed: int) -> None:
        self.job = job
        self.seed = seed
        self.twin = job.twin()
        self.mesh = job if job.on_cluster else self.twin
        self.tracer = Tracer()
        self.trials = Trials(job, seed)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.kernel: list[float] = []
        self.hashing_d1_ns = 0.0
        #: Calibrated primary-trial rates with and without a span around them.
        self.spanned: dict[str, list[float]] = defaultdict(list)
        self.plain: dict[str, list[float]] = defaultdict(list)

    def add(self, name: str, value: float) -> float:
        self.values[name].append(value)
        return value

    def bracket(self, work):
        result, calib_s = calib.bracket(work)
        self.kernel.append(calib_s)
        return result, calib_s

    # ------------------------------------------------------------------ #
    # the layers below the partitioner
    # ------------------------------------------------------------------ #
    def prepare_probes(self) -> None:
        """The probes' inputs, which are the same in every round."""
        job, mesh = self.job, self.mesh
        batches = list(job.batches(self.seed))
        mesh_batches = batches if job.on_cluster else list(mesh.batches(self.seed))
        self.dealt = [pair for batch in batches for pair in enumerate(shares(job, batch))]
        if job.columnar:
            self.entries = len(batches[-1].dictionary)
            self.sketch_feed = [(source, share.ids.tolist()) for source, share in self.dealt]
        else:
            self.entries = len(set().union(*batches))
            self.sketch_feed = self.dealt
        # Transport probes run at the mesh's geometry: frames of the mean
        # size its source scatters, and the dictionary deltas they wait for.
        dictionary = mesh_batches[-1].dictionary
        self.ids = ids = np.concatenate([batch.ids for batch in mesh_batches])
        self.frame_ids = max(1, mesh.batch_size // mesh.num_workers)
        self.frames = [ids[start : start + self.frame_ids] for start in range(0, ids.size, self.frame_ids)]
        self.keys = keys = dictionary.decode(range(len(dictionary)))
        marks = np.maximum.accumulate([int(batch.ids.max()) + 1 for batch in mesh_batches]).tolist()
        self.deltas = [(start, keys[start:stop]) for start, stop in zip([0] + marks, marks) if stop > start]

    def probe_layers(self, trial: str) -> None:
        job, tracer = self.job, self.tracer
        messages, sources, workers = job.messages, job.num_sources, job.num_workers
        columnar, dealt, sketch_feed = job.columnar, self.dealt, self.sketch_feed
        ids, frames, keys, deltas, entries = self.ids, self.frames, self.keys, self.deltas, self.entries
        theta = theta_range(workers).default
        families = [HashFamily(2, workers, seed=0) for _ in range(sources)]
        # KG hashes once per key, not twice: its route is compared with this.
        single = [HashFamily(2, workers, seed=0) for _ in range(sources)]
        sketches = [
            SpaceSaving.for_threshold(theta, slack=DEFAULT_SKETCH_SLACK) for _ in range(sources)
        ]
        # One ring large enough never to wrap.
        capacity = ids.size + (len(frames) + 2) * FRAME_HEADER_WORDS + self.frame_ids
        ring = SpscRing(np.zeros(ring_words(capacity), dtype=np.int64), capacity, create=True)
        replica = DictionaryReplica()

        spans: dict[str, dict] = {}

        def work() -> None:
            for name, hashes, d in (
                ("hashing.candidates_cold", families, 2),
                ("hashing.candidates_warm", families, 2),
                ("hashing.candidates_cold.d1", single, 1),
            ):
                with tracer.span(name, trial, messages=messages) as spans[name]:
                    for source, share in dealt:
                        if columnar:
                            hashes[source].id_candidate_columns(share.ids, share.dictionary, d)
                        else:
                            hashes[source].candidates_batch_columns(share, d)
            with tracer.span("sketches.classify", trial, messages=messages) as spans["sketches.classify"]:
                runs = [
                    sketches[source].add_and_classify_runs(feed, theta, SKETCH_WARMUP, [])
                    for source, feed in sketch_feed
                ]
            spans["sketches.classify"]["counts"]["head_messages"] = sum(map(sum, runs))
            sketch = sketches[0]
            head = sorted((count / sketch.total for count in sketch.head_counts(theta)), reverse=True)
            tail_mass = max(0.0, 1.0 - sum(head))
            with tracer.span("analysis.solver", trial, calls=SOLVER_CALLS) as spans["analysis.solver"]:
                for _ in range(SOLVER_CALLS):
                    solution = find_optimal_choices(head, tail_mass, workers)
            spans["analysis.solver"]["counts"]["d_chosen"] = solution.num_choices
            with tracer.span("runtime.ring_push", trial, frames=len(frames)) as spans["runtime.ring_push"]:
                pushed = sum(ring.try_push(frame) for frame in frames)
            spans["runtime.ring_push"]["counts"].update(pushed=pushed, words=ring.pending_words())
            with tracer.span("runtime.ring_pop", trial) as spans["runtime.ring_pop"]:
                popped = 0
                while (frame := ring.try_pop()) is not None:
                    popped += frame.ids.size
            spans["runtime.ring_pop"]["counts"]["messages"] = popped
            with tracer.span("runtime.delta_apply", trial, keys=len(keys)) as spans["runtime.delta_apply"]:
                for start, delta in deltas:
                    replica.apply(start, delta)

        _, calib_s = self.bracket(work)
        counts = {name: span["counts"] for name, span in spans.items()}
        if counts["runtime.ring_push"]["pushed"] != len(frames) or counts["runtime.ring_pop"]["messages"] != ids.size:
            self.trials.failures.append(f"{trial}: the in-process ring lost frames")
        if len(replica) != len(keys):
            self.trials.failures.append(f"{trial}: the dictionary replica is missing entries")

        self.hashing_d1_ns = nominal_ns(seconds(spans["hashing.candidates_cold.d1"]), messages, calib_s)
        for name, metric, units in (
            ("hashing.candidates_cold", "hashing.candidates_cold_ns_per_msg", messages),
            ("hashing.candidates_warm", "hashing.candidates_warm_ns_per_msg", messages),
            ("sketches.classify", "sketches.classify_ns_per_msg", messages),
            ("analysis.solver", "analysis.solver_ns_per_call", SOLVER_CALLS),
            ("runtime.ring_push", "runtime.ring_push_ns_per_msg", ids.size),
            ("runtime.ring_pop", "runtime.ring_pop_ns_per_msg", ids.size),
            ("runtime.delta_apply", "runtime.delta_apply_ns_per_key", max(1, len(keys))),
        ):
            self.add(metric, nominal_ns(seconds(spans[name]), units, calib_s))
        self.add("workloads.dict_entries", entries)
        self.add("workloads.distinct_share", entries / messages)
        self.add("hashing.table_rows", entries)
        self.add("sketches.head_share", counts["sketches.classify"]["head_messages"] / messages)
        self.add("sketches.head_keys", sketches[0].head_signature(theta)[0])
        self.add("analysis.d_chosen", counts["analysis.solver"]["d_chosen"])
        self.add("runtime.ring_words_per_msg", counts["runtime.ring_push"]["words"] / ids.size)

    # ------------------------------------------------------------------ #
    # one scheme: trials, passes, twin
    # ------------------------------------------------------------------ #
    def spanned_trial(self, view: Job, scheme: str, trial: str) -> Outcome:
        layer = "runtime.cluster" if view.on_cluster else "simulation.run"
        with self.tracer.span(f"{layer}.{scheme}", trial, messages=view.messages) as record:
            outcome = view.trial(scheme, self.seed)
        record["counts"]["timed_s"] = outcome.seconds
        return outcome

    def measured_pass(self, view: Job, scheme: str, trial: str):
        """A bracketed :func:`drive`: ``(loads, generate_ns, route_ns)`` per message."""
        (loads, generate_s, route_s), calib_s = self.bracket(
            lambda: drive(view, scheme, self.seed, self.tracer, trial)
        )
        messages = view.messages
        return loads, nominal_ns(generate_s, messages, calib_s), nominal_ns(route_s, messages, calib_s)

    def record_substrate(self, view: Job, scheme: str, outcome: Outcome, calib_s: float, pass_ns: float) -> None:
        """One substrate run, and what it spent outside generate + route."""
        messages = view.messages
        run = nominal_ns(outcome.seconds, messages, calib_s if view.calibrated else None)
        if not view.on_cluster:
            self.add(f"simulation.run_ns_per_msg.{scheme}", run)
            self.add(f"simulation.engine_self_ns_per_msg.{scheme}", run - pass_ns)
            return
        self.add(f"runtime.cluster_ns_per_msg.{scheme}", run)
        self.add(f"runtime.transport_remainder_ns_per_msg.{scheme}", run - pass_ns)
        self.add("runtime.spawn_teardown_ms", (outcome.wall - outcome.seconds) * 1e3)
        _, result = outcome.cluster
        self.add("runtime.frames", sum(worker.frames for worker in result.worker_results))
        service_s = (view.service_ns or 0) * 1e-9
        self.add(f"runtime.hot_worker_busy_share.{scheme}", service_s * max(outcome.loads) / outcome.seconds)
        self.add(
            f"runtime.capacity_efficiency.{scheme}",
            service_s * messages / (outcome.seconds * view.num_workers),
        )

    def probe_scheme(self, index: int, scheme: str) -> None:
        job, twin, trials = self.job, self.twin, self.trials
        trial = f"{index}/{scheme}"
        expected = list(trials.oracles[scheme].worker_loads)

        # The same trial with and without a span around it, order
        # alternating by round: their ratio is the tracing overhead.
        traced = None
        for with_span in (index % 2 == 0, index % 2 != 0):
            work = (lambda: self.spanned_trial(job, scheme, trial)) if with_span else None
            done = trials.run(scheme, work)
            if done is None:
                continue
            outcome, sample = done
            self.kernel.append(sample.calib_s)
            (self.spanned if with_span else self.plain)[scheme].append(trials.rate(sample))
            if with_span:
                traced = outcome, sample.calib_s

        loads, generate_ns, route_ns = self.measured_pass(job, scheme, trial)
        if loads != expected:
            trials.failures.append(f"{trial} pass: driven load vector differs from the oracle")
        self.add("workloads.generate_ns_per_msg", generate_ns)
        self.add(f"partitioning.route_ns_per_msg.{scheme}", route_ns)
        # This round's standalone probes of the layers route calls into.
        if scheme == "KG":
            below = self.hashing_d1_ns
        else:
            below = self.values["hashing.candidates_cold_ns_per_msg"][-1]
        if scheme in ("D-C", "W-C"):
            below += self.values["sketches.classify_ns_per_msg"][-1]
        self.add(f"partitioning.select_self_ns_per_msg.{scheme}", route_ns - below)
        pass_ns = generate_ns + route_ns
        if traced is not None:
            self.record_substrate(job, scheme, *traced, pass_ns)

        outcome, calib_s = self.bracket(lambda: self.spanned_trial(twin, scheme, trial))
        if outcome.messages != job.messages or not outcome.clean:
            trials.failures.append(f"{trial} twin: lost messages")
        elif job.on_cluster and outcome.loads != expected:
            trials.failures.append(f"{trial} twin: single-source simulation differs from the oracle")
        if not job.on_cluster:
            # The mesh twin routes at its own geometry, so it gets its own pass.
            _, generate_ns, route_ns = self.measured_pass(twin, scheme, trial)
            pass_ns = generate_ns + route_ns
        self.record_substrate(twin, scheme, outcome, calib_s, pass_ns)

    # ------------------------------------------------------------------ #
    def run(self, rounds: int) -> None:
        self.trials.prepare()
        self.prepare_probes()
        for index in range(rounds):
            with self.tracer.span("bench.round", str(index)):
                self.probe_layers(f"{index}/layers")
                for scheme in SCHEMES:
                    self.probe_scheme(index, scheme)

    def metrics(self) -> dict[str, Metric]:
        trials = self.trials
        median, q1, q3 = summary(self.kernel)
        self.add("bench.calib_ms", median * 1e3)
        self.add("bench.calib_iqr_share", (q3 - q1) / median)
        self.add("bench.trials", trials.attempted)
        overheads = []
        for scheme in SCHEMES:
            self.add(f"partitioning.imbalance.{scheme}", trials.oracles[scheme].final_imbalance)
            if trials.samples[scheme]:
                self.add(
                    f"bench.raw_msgs_per_s.{scheme}",
                    statistics.median(sample.raw_rate for sample in trials.samples[scheme]),
                )
            if self.plain[scheme] and self.spanned[scheme]:
                overheads.append(
                    statistics.median(self.plain[scheme]) / statistics.median(self.spanned[scheme]) - 1.0
                )
        if overheads:
            self.add("bench.trace_overhead_share", statistics.median(overheads))
        out = {}
        for name, values in self.values.items():
            median, q1, q3 = summary(values)
            out[name] = Metric(median, f"q1 {q1:.4g} q3 {q3:.4g} n {len(values)}" if len(values) > 1 else "")
        return out


def traced(job: Job, seed: int, seconds_: float, out_dir: Path) -> tuple[dict[str, Metric], Trials]:
    """The traced run of one workload: its per-layer metrics and its span file."""
    run = TracedRun(job, seed)
    rounds = scaled_rounds(TRACE_ROUNDS, seconds_)
    run.run(rounds)
    run.tracer.write(out_dir / f"trace-{job.name}.jsonl")
    print(f"# {job.name} traced: {rounds} rounds, {len(run.tracer.spans)} spans, seed {seed}")
    return run.metrics(), run.trials
