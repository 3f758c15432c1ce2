"""N hosts on one shared clock, coupled by a leaf/spine fabric.

:class:`Cluster` is the rack-scale driver ROADMAP item 1 asks for: it
resolves one frozen :class:`~repro.sim.knobs.KnobSet`, builds one
event engine, and constructs N :class:`~repro.topology.host.Host`
nodes onto it — each with its own counter/pool namespace (``h0``,
``h1``, ...) so every registry name stays globally unique — plus a
:class:`~repro.topology.fabric.LeafSpineFabric` between them. Flows
(:meth:`add_flow`) pace cachelines from a source host through shared
switch queues into the destination host's NIC, where they become
ordinary P2M DMA writes; ECN marks picked up in congested queues feed
the DCTCP control loop, and PFC pause propagates switch-by-switch back
to the sender. Cross-host fabric contention therefore composes with
per-host domain contention — the experiment class the paper's two
physical servers could not express.

Determinism contract: a 1-host cluster with no flows drives the exact
event sequence of ``Host.run`` (same warmup/measure windows on the
same engine), so its RunResult is **bit-identical** to a bare host run
— enforced by ``tests/test_cluster.py`` and the ``cluster_check.py``
CI gate next to the fig03 fingerprints.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.pcie.nic import Nic
from repro.sim.engine import Simulator
from repro.sim.knobs import KnobSet
from repro.sim.records import CACHELINE_BYTES
from repro.topology.fabric import (
    FabricSender,
    FabricStats,
    LeafSpineFabric,
    gbps,
)
from repro.topology.host import Host, RunResult
from repro.topology.presets import HostConfig
from repro.validate import ValidatingSimulator


class _FlowDelivery:
    """Per-flow terminal callback: count the line, hand it to the NIC.

    Several incast flows share one receive NIC, so the NIC's own
    delivery counter cannot attribute goodput per flow; this adapter
    rides in front of :meth:`~repro.pcie.nic.Nic.fabric_deliver` and
    keeps a window counter per flow (slotted + bound-method wiring, so
    cluster checkpoints stay picklable).
    """

    __slots__ = ("nic", "lines_delivered")

    def __init__(self, nic: Nic):
        self.nic = nic
        self.lines_delivered = 0

    def __call__(self, now: float, marked: bool = False) -> None:
        self.lines_delivered += 1
        self.nic.fabric_deliver(now, marked)

    def reset_stats(self) -> None:
        self.lines_delivered = 0


@dataclass
class ClusterFlow:
    """One paced src → dst flow and its endpoints."""

    src: int
    dst: int
    sender: FabricSender
    nic: Nic
    delivery: _FlowDelivery

    def delivered_bytes_per_ns(self, elapsed_ns: float) -> float:
        """This flow's receive-side goodput over a window (bytes/ns)."""
        return self.delivery.lines_delivered * CACHELINE_BYTES / elapsed_ns


@dataclass
class ClusterResult:
    """Per-host RunResults plus the fabric's window stats."""

    hosts: List[RunResult]
    fabric: FabricStats
    elapsed_ns: float
    #: fabric line-conservation checks that passed at window end
    fabric_checks: int = 0
    #: per-flow receive goodput (bytes/ns), in add_flow order
    flow_goodput: List[float] = field(default_factory=list)

    def host(self, index: int) -> RunResult:
        """One host's RunResult."""
        return self.hosts[index]


class Cluster:
    """N namespaced hosts + a leaf/spine fabric on one engine.

    Typical use::

        cluster = Cluster(cascade_lake(), n_hosts=2)
        cluster.hosts[1].add_stream_cores(2)          # dst-side C2M app
        add_rdma_write_flow(cluster, src=0, dst=1)    # net/rdma.py
        result = cluster.run(warmup_ns=20_000, measure_ns=80_000)

    ``link_gbps`` / ``t_prop_ns`` size every fabric link;
    ``ecn_threshold_lines`` enables CE marking (DCTCP fabrics),
    ``pfc_enabled`` hop-by-hop pause (RDMA fabrics). Queue capacity is
    in cachelines.
    """

    def __init__(
        self,
        config: HostConfig,
        n_hosts: int,
        seed: int = 1,
        validate: Optional[bool] = None,
        n_leaves: Optional[int] = None,
        n_spines: int = 1,
        link_gbps: float = 100.0,
        t_prop_ns: float = 500.0,
        queue_capacity_lines: int = 8192,
        ecn_threshold_lines: Optional[int] = None,
        pfc_enabled: bool = True,
        knobs: Optional[KnobSet] = None,
    ):
        if n_hosts <= 0:
            raise ValueError("a cluster needs at least one host")
        self.config = config
        #: one knob resolution for the whole rack: every host is built
        #: from the same frozen set, so two hosts on the shared clock
        #: cannot observe different knob values (see repro.sim.knobs).
        self.knobs = KnobSet.resolve() if knobs is None else knobs
        self.validate = self.knobs.validate if validate is None else bool(validate)
        self.sim = ValidatingSimulator() if self.validate else Simulator()
        self.hosts: List[Host] = [
            Host(
                config,
                seed=seed + index,
                validate=self.validate,
                sim=self.sim,
                namespace=f"h{index}",
                knobs=self.knobs,
            )
            for index in range(n_hosts)
        ]
        self.fabric = LeafSpineFabric(
            self.sim,
            n_hosts,
            n_leaves=n_leaves,
            n_spines=n_spines,
            link_bandwidth=gbps(link_gbps),
            t_prop=t_prop_ns,
            queue_capacity=queue_capacity_lines,
            ecn_threshold=ecn_threshold_lines,
            pfc_enabled=pfc_enabled,
        )
        self.flows: List[ClusterFlow] = []
        self._started = False

    @property
    def n_hosts(self) -> int:
        """Hosts in the cluster."""
        return len(self.hosts)

    # ------------------------------------------------------------------
    # Flow wiring
    # ------------------------------------------------------------------

    def add_flow(
        self,
        src: int,
        dst: int,
        rate_gbps: float,
        buffer_bytes: int = 2 << 20,
        pfc_enabled: bool = True,
        nic_name: str = "nic",
    ) -> ClusterFlow:
        """Open a paced ``src → dst`` flow through the fabric.

        The destination host gets (or reuses) a fabric-fed NIC named
        ``nic_name`` — several flows to one host share it, which is
        exactly incast: they contend first in the last-hop switch
        queue, then in the NIC buffer, then for the host's IIO
        credits. With ``pfc_enabled`` the NIC's buffer pause stops the
        last-hop port's drain (and the congestion ripples upstream
        port by port); without it the fabric relies on ECN/loss.
        """
        dst_host = self.hosts[dst]
        nic = dst_host.devices.get(nic_name)
        if nic is None:
            nic = dst_host.add_nic(
                ingress_rate=0.0,
                buffer_bytes=buffer_bytes,
                pfc_enabled=pfc_enabled,
                name=nic_name,
            )
        elif not isinstance(nic, Nic):
            raise ValueError(f"device {nic_name!r} on host {dst} is not a NIC")
        delivery = _FlowDelivery(nic)
        sender = self.fabric.connect(src, dst, delivery, gbps(rate_gbps))
        edge = self.fabric.edge_port(dst)
        if pfc_enabled and edge is not None:
            # Hop-by-hop PFC's last link: the NIC buffer pauses the
            # edge port's drain, not just its own ingress process.
            nic.rx.on_pause_change = edge.set_downstream_paused
        flow = ClusterFlow(
            src=src, dst=dst, sender=sender, nic=nic, delivery=delivery
        )
        self.flows.append(flow)
        if self._started:
            sender.start()
        return flow

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every host and every fabric sender (idempotent)."""
        if self._started:
            return
        self._started = True
        for host in self.hosts:
            host.start()
        for sender in self.fabric.senders:
            sender.start()

    def run(
        self, warmup_ns: float = 20_000.0, measure_ns: float = 80_000.0
    ) -> ClusterResult:
        """Warm up, measure, and collect per-host + fabric results.

        The cluster owns the clock: it advances the shared engine
        through both windows and opens/closes each host's measurement
        window via the extracted
        :meth:`~repro.topology.host.Host.begin_measurement` /
        :meth:`~repro.topology.host.Host.finalize_measurement` hooks.
        """
        self.start()
        sim = self.sim
        sim.run_until(sim.now + warmup_ns)
        for host in self.hosts:
            host.begin_measurement()
        self.fabric.reset_stats(sim.now)
        for flow in self.flows:
            flow.delivery.reset_stats()
        t_start = sim.now
        wall_before = time.perf_counter()
        sim.run_until(t_start + measure_ns)
        wall_s = time.perf_counter() - wall_before
        results = [host.finalize_measurement(wall_s) for host in self.hosts]
        elapsed = sim.now - t_start
        checks = self.fabric.check_conservation()
        return ClusterResult(
            hosts=results,
            fabric=self.fabric.stats(sim.now),
            elapsed_ns=elapsed,
            fabric_checks=checks,
            flow_goodput=[
                flow.delivered_bytes_per_ns(elapsed) for flow in self.flows
            ],
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Snapshot the whole rack (hosts + fabric + shared engine)
        into one checksummed blob with the knob fingerprint."""
        from repro.sim import checkpoint

        checkpoint.save_cluster(self, path)

    @classmethod
    def restore(cls, path) -> "Cluster":
        """Rebuild a live cluster from :meth:`save`'s blob (refuses a
        knob mismatch, restores the shared Request pool)."""
        from repro.sim import checkpoint

        return checkpoint.load_cluster(path)
