"""The DES interpreter for the apps' op streams.

Every app writes its schedule once, as op streams: a list of
``(name, stream)`` processes, each stream a generator of op tuples
(``cpu``, ``chan``, ``fpga``, ``send``, ``send_batch``, ``recv``,
``wait``, ``wait_all``, ``set``).  Two engines run the same streams:
:func:`simulate` here (the discrete-event simulation on
:class:`~repro.machine.node.ComputeNode` and
:class:`~repro.mpi.Communicator`, with traces, monitors, faults and
per-node ``node_specs``) and :class:`repro.sim.analytic.Replay` (the
event-free fast path).  Ops carry quantities, never durations, so each
engine derives time with its own rates.  docs/simulator.md ("How the
schedules use it") tables each op, its fields, and which engine reads
which field.
"""

from __future__ import annotations

from typing import Optional

from ..machine.system import MachineSpec, ReconfigurableSystem
from ..mpi import Communicator

__all__ = ["simulate"]


def simulate(
    spec: MachineSpec,
    design,
    procs,
    trace: bool = False,
    node_specs: Optional[list] = None,
    monitor: Optional[object] = None,
    faults: Optional[object] = None,
) -> dict:
    """Run ``(name, stream)`` processes on a fresh simulated machine.

    Builds the system (every FPGA loaded with ``design``), attaches
    ``monitor``, installs ``faults`` after the FPGAs are configured and
    before the processes spawn, then runs to completion.  Returns the
    result fields the apps share with :meth:`Replay.play`
    (``elapsed``, ``trace``, ``cpu_busy``, ``fpga_busy``,
    ``network_bytes``).
    """
    system = ReconfigurableSystem(spec, trace=trace, node_specs=node_specs)
    sim = system.sim
    if monitor is not None:
        sim.attach_monitor(monitor)
    system.configure_fpgas(lambda: design)
    if faults is not None:
        faults.install(system)
    comm = Communicator(system)
    nodes = system.nodes
    events: dict = {}

    def event(key):
        ev = events.get(key)
        if ev is None:
            ev = events[key] = sim.event()
        return ev

    def fpga_job(node, cycles, flops, repeat, label, done):
        for _ in range(repeat):
            yield from node.fpga_run_cycles(cycles, label=label, flops=flops)
        done.succeed()

    def interpret(ops):
        for op in ops:
            code = op[0]
            if code == "cpu":
                yield from nodes[op[1]].cpu_run(op[2], op[3], label=op[4])
            elif code == "recv":
                yield from comm.recv(op[1], op[2], tag=op[3])
            elif code == "chan":
                yield from nodes[op[1]].dram_to_fpga(op[2], label=op[3])
            elif code == "wait":
                yield event(op[1])
            elif code == "set":
                event(op[1]).succeed()
            elif code == "fpga":
                _, i, cycles, flops, repeat, key, label = op
                sim.process(fpga_job(nodes[i], cycles, flops, repeat, label, event(key)))
            elif code == "send":
                yield from comm.send(op[1], op[2], nbytes=op[3], tag=op[4])
            elif code == "send_batch":
                _, src, dsts, nbytes, tag = op
                yield sim.all_of(
                    [sim.process(comm.send(src, w, nbytes=nbytes, tag=tag)) for w in dsts]
                )
            elif code == "wait_all":
                if len(op) == 2:
                    yield sim.all_of([event(k) for k in op[1]])
                else:
                    _, keys, dst, srcs = op
                    yield sim.all_of([
                        event(k) if s is None else sim.process(comm.recv(dst, s, tag=k))
                        for k, s in zip(keys, srcs)
                    ])
            else:  # pragma: no cover - schedule author error
                raise AssertionError(f"unknown op {code!r}")

    for name, ops in procs:
        sim.process(interpret(ops), name=name)
    elapsed = system.run()
    return {
        "elapsed": elapsed,
        "trace": system.trace,
        "cpu_busy": [nd.cpu_busy_time for nd in nodes],
        "fpga_busy": [nd.fpga.busy_time for nd in nodes],
        "network_bytes": system.network.bytes_moved,
    }
