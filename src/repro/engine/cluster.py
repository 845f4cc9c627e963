"""Fleet sweeps: ``bcache-serve`` nodes as supervisor workers (``bcache-cluster``).

A fleet sweep partitions a job list across N running ``bcache-serve``
endpoints (TCP or Unix, local or remote) and drives it to
**bit-identical** completion despite node failure.  Distribution never
changes *what* is simulated — every job runs the same
``make_cache / access_trace`` path a serial sweep uses, on whichever
node happens to serve it — so the merged result list compares ``==``
(full snapshots, per-set counters included) against a local
``run_sweep(jobs, workers=1)``.

A node is one more worker kind behind the one worker supervisor
(:class:`repro.engine.workers.Supervisor`); see ``docs/cluster.md``.
:func:`run_cluster_sweep` is a thin caller of
:func:`repro.engine.resilience.run_resilient`, so a fleet sweep has the
same retry loop, deadline, in-process fallback and run journal as a
local one.  What this module adds is what only a remote worker needs:

* :class:`NodeWorker`: a message is one blocking
  :meth:`~repro.serve.client.ServeClient.sweep` round trip whose socket
  deadline is ``job_timeout × len(jobs)``; the connection is opened
  lazily and health-probed with the ``status`` op (``draining``,
  ``cpus_usable``, ``protocol_version``);
* throughput-sized batches: a node takes ~``target_batch_seconds`` of
  work per message at its EWMA rate (local processes take one job);
* node-level fault kinds (``node_down``, ``node_hang``,
  ``node_flaky``), fired parent-side at exact ``(job, attempt)``
  coordinates — what the ``cluster-smoke`` CI job replays;
* the :meth:`ClusterCoordinator.summary` counters the CLI gates read.

A node that fails ``max_node_failures`` times in a row (or hits
``node_down``) is retired for the sweep; its jobs are retried on the
others, and only when every node is retired does the sweep finish
in-process.

Run as a module (or via the ``bcache-cluster`` entry point) this file
is that CI harness: it sweeps a fleet, optionally under a fault plan,
and ``--verify`` gates on bit-identity against a local serial run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.engine.faultinject import FaultPlan, FaultPlanError
from repro.engine.resilience import ResilienceConfig, RetryPolicy, run_resilient
from repro.engine.runner import SweepJob
from repro.engine.trace_store import TraceStore, default_store
from repro.engine.workers import Reply, Supervisor, WorkerLost
from repro.obs import events as obs_events
from repro.obs import instrument as _obs
from repro.obs import tracectx
from repro.obs.tracectx import TraceContext
from repro.serve.client import ServeClient, ServeError, parse_address
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.stats.counters import CacheStats


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Tuning for fleet sweeps.

    Attributes:
        connect_timeout: deadline for the TCP/Unix connect handshake.
        request_timeout: deadline per job of a dispatched batch (the
            supervisor's ``job_timeout``); it also bounds the ``status``
            probe.
        target_batch_seconds: batch sizing aims for this much work per
            message, given the node's EWMA throughput.
        max_batch: hard cap on jobs per dispatched batch.
        max_node_failures: consecutive failures before a node is
            retired for the rest of the sweep.
        retry: per-job retry budget and the backoff between a node's
            consecutive failures (exponential with deterministic jitter).
        backoff_seed: seed for the jitter generator.
        fsync: journal durability (disable only in tests).
    """

    connect_timeout: float = 5.0
    request_timeout: float = 60.0
    target_batch_seconds: float = 1.0
    max_batch: int = 32
    max_node_failures: int = 4
    retry: RetryPolicy = RetryPolicy()
    backoff_seed: int = 2006
    fsync: bool = True

    def resilience(self) -> ResilienceConfig:
        """The supervisor's knobs for a fleet of nodes."""
        return ResilienceConfig(
            retry=self.retry,
            job_timeout=self.request_timeout,
            max_pool_failures=self.max_node_failures,
            backoff_seed=self.backoff_seed,
            fsync=self.fsync,
        )


class NodeWorker:
    """One ``bcache-serve`` endpoint as a supervisor worker."""

    def __init__(self, address: str, config: ClusterConfig) -> None:
        self.address = address
        self.config = config
        self.failures = 0
        self.batches = 0
        self.jobs = 0
        self.restarts = 0
        self.retired = False
        self.redispatched = 0
        self.draining = False
        self.cpus_usable = 1
        self.protocol_version: int | None = None
        #: EWMA jobs/second over this node's completed batches.
        self.throughput = 0.0
        self._client: ServeClient | None = None

    def _probe(self, client: ServeClient) -> None:
        """Health-probe a fresh connection with the ``status`` op.

        Refreshes ``draining``, ``cpus_usable`` and ``protocol_version``.
        A draining node, or one speaking a newer protocol revision than
        this coordinator (we cannot trust its payloads), is retired.
        """
        server = client.status().get("server", {})
        self.draining = bool(server.get("draining", False))
        cpus = server.get("cpus_usable")
        self.cpus_usable = max(1, cpus) if isinstance(cpus, int) else 1
        version = server.get("protocol_version")
        self.protocol_version = version if isinstance(version, int) else None
        if self.draining:
            raise WorkerLost(f"node {self.address} is draining", retire=True)
        if self.protocol_version is not None and self.protocol_version > PROTOCOL_VERSION:
            raise WorkerLost(
                f"node {self.address} speaks protocol {self.protocol_version} "
                f"(coordinator speaks {PROTOCOL_VERSION})",
                retire=True,
            )

    def batch_size(self) -> int:
        """Jobs to take: ~``target_batch_seconds`` of work at the EWMA rate.

        Before the first batch completes there is no throughput sample,
        so the size falls back to ``2 × cpus_usable`` — enough to fill
        the node's shards without hoarding jobs a peer could run.
        """
        if self.throughput > 0.0:
            size = int(self.throughput * self.config.target_batch_seconds)
        else:
            size = self.cpus_usable * 2
        return max(1, min(self.config.max_batch, size))

    def _fire(self, kinds: tuple[str, ...]) -> None:
        """Raise the node-level fault a dispatch coordinate injects."""
        if "node_down" in kinds:
            raise WorkerLost(
                f"node_down: injected permanent death of {self.address}", retire=True
            )
        if "node_hang" in kinds:
            raise WorkerLost(f"node_hang: injected deadline expiry on {self.address}")
        if "node_flaky" in kinds:
            raise WorkerLost(f"node_flaky: injected transient error from {self.address}")

    def exchange(
        self,
        jobs: list[SweepJob],
        traces: Sequence[str | None],
        faults: Sequence[tuple[str, ...]],
        deadline: float,
    ) -> Reply:
        """One ``sweep`` round trip under ``deadline`` seconds.

        The connection is opened and probed on first use.  Jobs count as
        redispatched when the node accepted the connection but did not
        answer them; an unreachable node never held them.  The batch
        runs in a ``cluster_node`` span whose context rides the payload,
        so the node's request-path spans join the sweep's trace.
        """
        client = self._client
        if client is None:
            try:
                client = ServeClient.connect(
                    self.address,
                    timeout=self.config.request_timeout,
                    connect_timeout=self.config.connect_timeout,
                )
            except OSError as exc:
                raise WorkerLost(f"node {self.address} unreachable: {exc}") from exc
        try:
            if self._client is None:
                self._client = client
                self._probe(client)
            for kinds in faults:
                self._fire(kinds)
            started = time.monotonic()
            with _obs.stage_span(
                "cluster_node", trace=tracectx.current(),
                node=self.address, jobs=len(jobs),
            ) as ctx:
                stats = client.sweep(
                    jobs, timeout=deadline,
                    trace=ctx.to_wire() if ctx is not None else None,
                )
            if len(stats) != len(jobs):
                raise ProtocolError(
                    f"returned {len(stats)} results for a {len(jobs)}-job batch"
                )
        except (OSError, ProtocolError, ServeError, WorkerLost) as exc:
            self.redispatched += len(jobs)
            obs_events.emit("cluster.redispatch", node=self.address, jobs=len(jobs))
            if isinstance(exc, WorkerLost):
                raise
            raise WorkerLost(f"node {self.address}: {exc}") from exc
        elapsed = time.monotonic() - started
        if elapsed > 0.0:
            rate = len(jobs) / elapsed
            self.throughput = (
                rate if self.throughput == 0.0 else 0.7 * self.throughput + 0.3 * rate
            )
        return [("ok", entry.snapshot()) for entry in stats], [], []

    def kill(self) -> None:
        """Close the connection; the next exchange reconnects and re-probes."""
        client, self._client = self._client, None
        if client is not None:
            with contextlib.suppress(OSError):
                client.close()

    def start(self) -> None:
        """Nothing to spawn: the next exchange reconnects."""

    def hangup(self) -> None:
        self.kill()

    def stop(self, timeout: float) -> None:
        self.kill()

    def snapshot(self) -> dict[str, Any]:
        return {
            "dead": self.retired,
            "draining": self.draining,
            "protocol_version": self.protocol_version,
            "cpus_usable": self.cpus_usable,
            "completed": self.jobs,
            "redispatched": self.redispatched,
            "reconnects": self.restarts,
        }


class ClusterCoordinator:
    """Drive sweeps across a fleet of ``bcache-serve`` endpoints.

    Construct with the fleet's addresses, then :meth:`run` a job list;
    the result list is order-aligned with the jobs and bit-identical to
    ``run_sweep(jobs, workers=1)``.  :meth:`summary` reports per-node
    accounting and the cluster totals afterwards.
    """

    def __init__(
        self,
        addresses: Sequence[str],
        config: ClusterConfig | None = None,
        store: TraceStore | None = None,
    ) -> None:
        unique = list(dict.fromkeys(address.strip() for address in addresses))
        unique = [address for address in unique if address]
        if not unique:
            raise ValueError("a cluster needs at least one node address")
        for address in unique:
            parse_address(address)  # a malformed address fails here, not mid-sweep
        self.config = config if config is not None else ClusterConfig()
        self.nodes = [NodeWorker(address, self.config) for address in unique]
        self.fallback_jobs = 0
        self._store = store

    def run(
        self,
        jobs: Iterable[SweepJob],
        *,
        run_id: str | None = None,
        run_root: str | Path | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> list[CacheStats]:
        """Run every job on the fleet; mirrors ``run_sweep`` semantics.

        ``run_id`` is create-or-resume exactly as in
        :func:`repro.engine.runner.run_sweep`: completed jobs replay
        from the run's stored entries, the rest are dispatched, and a
        coordinator killed mid-sweep resumes bit-identically.  A result
        that cannot be stored fails the sweep with ``OSError``.
        """
        job_list = list(jobs)
        store = self._store if self._store is not None else default_store()
        config = self.config.resilience()
        # Root the sweep's distributed trace in the job list itself:
        # hashing the first job key + count is deterministic across
        # reruns (no random, no clock — rule BCL019), so two runs of
        # the same sweep produce comparable trace ids.
        trace = (
            TraceContext.new(f"cluster/{job_list[0].key()}/{len(job_list)}")
            if job_list and obs_events.enabled()
            else None
        )
        with obs_events.span(
            "cluster.sweep", trace=trace, jobs=len(job_list), nodes=len(self.nodes)
        ), Supervisor(self.nodes, store, config) as supervisor:
            results = run_resilient(
                job_list, supervisor, store, config,
                run_id=run_id, run_root=run_root, fault_plan=fault_plan,
            )
        if supervisor.fallback_jobs:
            obs_events.emit("cluster.local_fallback", jobs=supervisor.fallback_jobs)
        self.fallback_jobs += supervisor.fallback_jobs
        return results

    def nodes_up(self) -> int:
        return sum(1 for node in self.nodes if not node.retired)

    def summary(self) -> dict[str, Any]:
        """Per-node accounting and cluster totals.

        This is the fleet's accounting: a coordinator exports no metric
        registry, so nodes up, re-dispatches, fallback jobs and each
        node's ``completed`` count are read here.
        """
        return {
            "nodes": {node.address: node.snapshot() for node in self.nodes},
            "nodes_up": self.nodes_up(),
            "redispatch_total": sum(node.redispatched for node in self.nodes),
            "fallback_jobs": self.fallback_jobs,
        }


def run_cluster_sweep(
    jobs: Iterable[SweepJob],
    addresses: Sequence[str],
    *,
    config: ClusterConfig | None = None,
    run_id: str | None = None,
    run_root: str | Path | None = None,
    fault_plan: FaultPlan | None = None,
    store: TraceStore | None = None,
) -> list[CacheStats]:
    """One-shot fleet sweep (``bcache-sim --connect host1,host2`` path)."""
    coordinator = ClusterCoordinator(addresses, config=config, store=store)
    return coordinator.run(
        jobs, run_id=run_id, run_root=run_root, fault_plan=fault_plan
    )


# ----------------------------------------------------------------------
# CLI entry point / CI chaos harness
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcache-cluster",
        description=(
            "Sweep a fleet of bcache-serve endpoints with health probing "
            "and bit-identical failover; --verify gates on equality with "
            "a local serial run."
        ),
    )
    add = parser.add_argument
    add("--connect", required=True, metavar="ADDRS",
        help="comma-separated endpoints (host:port or unix:/path.sock)")
    add("--benchmarks", default="gzip,equake,mcf",
        help="comma-separated synthetic benchmarks (default: %(default)s)")
    add("--specs", default="dm,2way",
        help="comma-separated cache specs (default: %(default)s)")
    add("--n", type=int, default=4000, help="accesses per trace")
    add("--seed", type=int, default=2006, help="trace seed")
    add("--run-id", default=None,
        help="journal under this id (create-or-resume, like bcache-sim)")
    add("--run-root", default=None, help="journal root (default $REPRO_RUN_ROOT)")
    add("--inject-faults", default=None, metavar="PLAN",
        help="fault DSL incl. node kinds, e.g. 'node_down@1,node_flaky@2'")
    add("--connect-timeout", type=float, default=5.0,
        help="per-node connect deadline in seconds (default %(default)s)")
    add("--request-timeout", type=float, default=60.0,
        help="dispatch deadline per job of a batch, in seconds (default %(default)s)")
    add("--verify", action="store_true",
        help="re-run the sweep locally (serial) and require bit-identity")
    add("--expect-redispatch", type=int, default=None, metavar="N",
        help="fail unless at least N jobs were re-dispatched (CI gate)")
    add("--expect-fallback", type=int, default=None, metavar="N",
        help="fail unless at least N jobs ran via local fallback (CI gate)")
    add("--json", action="store_true", help="print the summary as JSON")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of ``bcache-cluster``; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s"
    )
    plan = None
    if args.inject_faults:
        try:
            plan = FaultPlan.parse(args.inject_faults)
        except FaultPlanError as exc:
            print(f"bcache-cluster: {exc}", file=sys.stderr)
            return 2
    jobs = [
        SweepJob(spec=spec, benchmark=benchmark, n=args.n, seed=args.seed)
        for benchmark in args.benchmarks.split(",")
        for spec in args.specs.split(",")
    ]
    config = ClusterConfig(
        connect_timeout=args.connect_timeout, request_timeout=args.request_timeout
    )
    coordinator = ClusterCoordinator(args.connect.split(","), config=config)
    results = coordinator.run(
        jobs, run_id=args.run_id, run_root=args.run_root, fault_plan=plan
    )
    summary = coordinator.summary()
    if args.json:
        print(json.dumps({"summary": summary}, indent=2, sort_keys=True))
    else:
        print(
            f"cluster: {len(jobs)} job(s) over {len(coordinator.nodes)} "
            f"node(s); {summary['nodes_up']} up at the end"
        )
        for address, entry in summary["nodes"].items():
            print(
                f"  node {address}: {'DOWN' if entry['dead'] else 'up'}  "
                f"completed={entry['completed']} "
                f"redispatched={entry['redispatched']} "
                f"reconnects={entry['reconnects']}"
            )
        print(
            f"cluster: redispatch_total={summary['redispatch_total']} "
            f"fallback_jobs={summary['fallback_jobs']}"
        )
    failed = False
    if args.verify:
        from repro.engine.runner import run_sweep

        if results == run_sweep(jobs, workers=1):
            print("verify: fleet results bit-identical to a serial run")
        else:
            print("verify: FAIL — fleet results diverged from a serial run",
                  file=sys.stderr)
            failed = True
    for key, want in (
        ("redispatch_total", args.expect_redispatch),
        ("fallback_jobs", args.expect_fallback),
    ):
        if want is not None and summary[key] < want:
            print(f"expect: FAIL — {key}={summary[key]} < {want}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
