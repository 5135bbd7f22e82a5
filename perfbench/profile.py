"""The traced run: per-layer metrics for every layer of the request path.

Every traced run profiles all four workloads (the one named first), so it
reports every per-layer metric.  For each workload it sets the program up
once, runs a fixed amount of work untraced, then the same work with spans
installed; ``trace.overhead_pct.<workload>`` is the difference.  Layers
that run in other processes are measured as a ladder over the same
utterances — a ``Session``, an in-process ``Server``, the ``NetServer``
direct, then a ``Gateway`` in front of it — with per-process CPU time from
``/proc`` and counters from the ``stats`` op.  The README maps each
per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import os
import socket
import statistics
import time

from perfbench import procfs
from perfbench.trace import Tracer
from perfbench.workloads import WORK, WORKLOADS, Phase

#: Fixed work of the traced passes.
OFFLINE_ROUNDS = 1  # passes over the eight batches
INPROC_ROWS_PER_STREAM = 400
WIRE_UTTERANCES = 6  # per connection in the two-connection pass
LADDER_UTTERANCES = 8  # streamed one after another on each rung
LM_REQUESTS = 8  # per connection; also the in-process rung's requests


def _overhead_pct(untraced: Phase, traced: Phase) -> float:
    return (traced.elapsed / untraced.elapsed - 1.0) * 100.0


def _kernel_spans(tracer: Tracer) -> None:
    from repro.hw.activation import PiecewiseLinearActivation
    from repro.hw.emulator import CUEmulator, SpectralWeights

    # A forward (one batch) or a step_rows call (one coalesced tick on the
    # server's dispatcher thread) is one request of the kernel.
    for method in ("forward", "step", "step_rows"):
        tracer.span(CUEmulator, method, f"emulator.{method}", root=True)
    tracer.span(SpectralWeights, "matvec_step", "emulator.matvec")
    tracer.span(SpectralWeights, "matvec_frames", "emulator.matvec")
    tracer.span(PiecewiseLinearActivation, "__call__", "emulator.pwl")


def _kernel_metrics(spans: dict, items: int, suffix: str) -> dict:
    """Kernel time and call counts per item (frame or row) of a pass."""
    def get(name, key):
        return spans.get(name, {}).get(key, 0.0)

    # The executor's self time (outside the matvec and PWL spans) is its
    # point-wise work: gate arithmetic, state bookkeeping, classifier.
    pointwise = sum(get(f"emulator.{method}", "self_s")
                    for method in ("forward", "step", "step_rows"))
    return {
        f"emulator.matvec_us_per_item.{suffix}": (get("emulator.matvec", "total_s") / items * 1e6, "us"),
        f"emulator.pwl_us_per_item.{suffix}": (get("emulator.pwl", "total_s") / items * 1e6, "us"),
        f"emulator.pointwise_us_per_item.{suffix}": (pointwise / items * 1e6, "us"),
        f"emulator.matvec_calls_per_item.{suffix}": (get("emulator.matvec", "calls") / items, "calls/item"),
        f"emulator.pwl_calls_per_item.{suffix}": (get("emulator.pwl", "calls") / items, "calls/item"),
    }


def profile_offline(workload, tracer: Tracer) -> tuple[dict, list[Phase]]:
    untraced = workload.measure(rounds=OFFLINE_ROUNDS)
    _kernel_spans(tracer)
    mark = len(tracer.spans)
    traced = workload.measure(rounds=OFFLINE_ROUNDS)
    tracer.restore()
    spans = tracer.summary(mark)
    forward = spans["emulator.forward"]
    metrics = _kernel_metrics(spans, traced.items, workload.name)
    metrics.update({
        "emulator.forward_ms_per_batch": (forward["total_s"] / forward["calls"] * 1e3, "ms"),
        # The first pass starts with batch 0, the batch the set-up scored.
        "executor.first_call_ms": ((workload.first_call_s - untraced.latencies[0]) * 1e3, "ms"),
        f"trace.overhead_pct.{workload.name}": (_overhead_pct(untraced, traced), "%"),
    })
    return metrics, [untraced, traced]


def profile_inproc(workload, tracer: Tracer) -> tuple[dict, list[Phase]]:
    server = workload.server_in
    before = server.stats()
    untraced = workload.measure(rows_per_stream=INPROC_ROWS_PER_STREAM)
    after = server.stats()
    _kernel_spans(tracer)
    mark = len(tracer.spans)
    traced = workload.measure(rows_per_stream=INPROC_ROWS_PER_STREAM)
    tracer.restore()
    spans = tracer.summary(mark)
    step_rows = spans["emulator.step_rows"]
    metrics = _kernel_metrics(spans, traced.items, workload.name)
    metrics.update({
        "emulator.step_us_per_row": (step_rows["total_s"] / traced.items * 1e6, "us"),
        "server.rows_per_call": (
            (after.frames - before.frames) / (after.batches - before.batches), "rows/call"),
        # A row waits for the whole step_rows call that computes it; the
        # rest of its submit-to-result time is the scheduler's.
        "server.overhead_us_per_row": (
            (statistics.fmean(traced.latencies)
             - step_rows["total_s"] / step_rows["calls"]) * 1e6, "us"),
        f"trace.overhead_pct.{workload.name}": (_overhead_pct(untraced, traced), "%"),
    })
    return metrics, [untraced, traced]


def _per_item_cpu(phase: Phase, role: str) -> float:
    return phase.cpu_s.get(role, 0.0) / phase.items * 1e6


def _p50_us(phase: Phase) -> float:
    return procfs.median(phase.latencies) * 1e6


def _push_utterance(workload, session, index: int, phase: Phase) -> None:
    """Push one pool utterance through an in-process session, timing each
    push and byte-checking each frame."""
    for position, frame in enumerate(workload.pool[index]):
        start = time.perf_counter()
        logits = session.push(frame)
        phase.latencies.append(time.perf_counter() - start)
        phase.items += 1
        phase.attempted += 1
        if logits.tobytes() != workload.expected[index][position]:
            phase.failed += 1
            workload.fail(f"ladder frame {index}[{position}] differs")


def profile_wire(workload, tracer: Tracer) -> tuple[dict, list[Phase]]:
    import repro.runtime.net.client as client_module
    from repro.runtime import Server
    from repro.runtime.cluster import Gateway

    load = workload.measure(utterances=WIRE_UTTERANCES)
    phases = [load]
    metrics = {
        "client.cpu_us_per_item.asr_stream_wire": (_per_item_cpu(load, "client"), "us"),
        "net_parent.cpu_us_per_item": (_per_item_cpu(load, "net_parent"), "us"),
        "worker.cpu_us_per_item.asr_stream_wire": (_per_item_cpu(load, "worker"), "us"),
    }

    # Ladder rungs 1 and 2: the same utterances in-process.
    ladder = [(2 * index) % len(workload.pool) for index in range(LADDER_UTTERANCES)]
    compiled = workload.compiled
    session_phase, server_phase = Phase(), Phase()
    with Server(compiled, max_batch=16, max_delay_s=0.002) as server:
        for index in ladder:
            _push_utterance(workload, compiled.session(), index, session_phase)
            with server.session() as session:
                _push_utterance(workload, session, index, server_phase)
    phases += [session_phase, server_phase]
    session_us = _p50_us(session_phase)

    # Rung 3: NetServer direct, one connection, untraced then traced.
    def direct(prefix: str, address=None) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        for index in ladder:
            workload._stream(index, 0.0, 1, phase, address=address, prefix=prefix)
        phase.elapsed = time.perf_counter() - start
        return phase

    untraced = direct("plain")
    tracer.span(client_module.NetSession, "push", "client.push", root=True)
    tracer.span(client_module.Client, "_send_binary", "client.encode")
    tracer.span(client_module.Client, "_send", "client.encode")
    tracer.span(client_module.Client, "_recv", "client.decode")
    tracer.span(socket.SocketIO, "write", "client.socket_write", tally=True)
    tracer.span(socket.SocketIO, "readinto", "client.socket_read", tally=True)
    mark, counted = len(tracer.spans), dict(tracer.counts)
    traced = direct("traced")
    tracer.restore()
    spans = tracer.summary(mark)
    moved = sum(tracer.counts[key] - counted.get(key, 0)
                for key in ("client.socket_write", "client.socket_read"))
    phases += [untraced, traced]

    # Rung 4: a Gateway in front of the same NetServer, interleaved with
    # direct streams so that drift over the rung cancels.
    gateway = Gateway([f"127.0.0.1:{workload.server.port}"]).start()
    workload.ports.append(gateway.port)
    paired_direct, via_gateway = Phase(), Phase()
    try:
        for index in ladder:
            workload._stream(index, 0.0, 1, paired_direct, prefix="pair")
            workload._stream(index, 0.0, 1, via_gateway, address=gateway.address, prefix="gw")
    finally:
        gateway.close()
    phases += [paired_direct, via_gateway]

    metrics.update({
        "session.push_us": (session_us, "us"),
        "server.push_us": (_p50_us(server_phase), "us"),
        "wire.push_us": (_p50_us(untraced), "us"),
        "wire.overhead_us": (_p50_us(untraced) - session_us, "us"),
        "client.encode_us": (spans["client.encode"]["self_s"] / traced.items * 1e6, "us"),
        "client.decode_us": (spans["client.decode"]["self_s"] / traced.items * 1e6, "us"),
        "client.bytes_per_item": (moved / traced.items, "B/item"),
        "gateway.hop_us": (_p50_us(via_gateway) - _p50_us(paired_direct), "us"),
        f"trace.overhead_pct.{workload.name}": (_overhead_pct(untraced, traced), "%"),
    })
    return metrics, phases


def profile_lm(workload, tracer: Tracer) -> tuple[dict, list[Phase]]:
    import repro.runtime.workloads as runtime_workloads
    from repro.nn.autograd import Tensor
    from repro.runtime import Session
    from repro.runtime.net import Client

    with Client("127.0.0.1", workload.server.port) as client:
        before = client.stats()[0]["stats"]
        load = workload.measure(requests=LM_REQUESTS)
        after = client.stats()[0]["stats"]
    metrics = {
        "client.cpu_us_per_item.lm_generate_wire": (_per_item_cpu(load, "client"), "us"),
        "worker.cpu_us_per_item.lm_generate_wire": (_per_item_cpu(load, "worker"), "us"),
        "worker.rows_per_call": (
            (after["frames"] - before["frames"]) / (after["batches"] - before["batches"]),
            "rows/call"),
    }

    # In-process rung: the same seeded requests through a Session.
    def generate_pass() -> Phase:
        phase = Phase()
        start = time.perf_counter()
        for index in range(LM_REQUESTS):
            tokens = workload.loaded.session().generate(workload.prompt, **workload._params(index))
            phase.attempted += 1
            phase.items += len(tokens)
            if tokens != workload.expected[index]:
                phase.failed += 1
                workload.fail(f"in-process generation {index} differs")
        phase.elapsed = time.perf_counter() - start
        return phase

    untraced = generate_pass()
    tracer.span(workload.loaded.executor(), "step", "float.step")
    tracer.span(runtime_workloads, "sample_token", "lm.sample")
    tracer.span(Session, "generate", "session.generate", root=True)
    tracer.count(Tensor, "__init__", "nn.Tensor")
    mark, tensors = len(tracer.spans), tracer.counts["nn.Tensor"]
    traced = generate_pass()
    tracer.restore()
    spans = tracer.summary(mark)
    tokens = traced.items
    rows = spans["float.step"]["calls"]
    metrics.update({
        "float.step_us_per_row": (spans["float.step"]["total_s"] / rows * 1e6, "us"),
        "nn.tensors_per_row": ((tracer.counts["nn.Tensor"] - tensors) / rows, "tensors/row"),
        "session.generate_us_per_token": (
            spans["session.generate"]["total_s"] / tokens * 1e6, "us"),
        "lm.sample_us_per_token": (spans["lm.sample"]["total_s"] / tokens * 1e6, "us"),
        f"trace.overhead_pct.{workload.name}": (_overhead_pct(untraced, traced), "%"),
    })
    return metrics, [load, untraced, traced]


PROFILES = {
    "asr_offline_paper": profile_offline,
    "asr_streams_inproc": profile_inproc,
    "asr_stream_wire": profile_wire,
    "lm_generate_wire": profile_lm,
}


def traced_profile(first: str, seed: int) -> dict:
    tracer = Tracer()
    metrics: dict = {}
    problems: list[str] = []
    ports: list[int] = []
    pids: list[int] = []
    attempted = failed = 0
    order = [first] + [name for name in PROFILES if name != first]
    try:
        for name in order:
            workload = WORKLOADS[name](seed)
            try:
                workload.setup()
                workload.prepare()
                found, phases = PROFILES[name](workload, tracer)
                workload.check()
            finally:
                tracer.restore()
                workload.close()
                ports += workload.ports
                pids += workload.server_processes
            found[f"model.compile_ms.{name}"] = (workload.compile_s * 1e3, "ms")
            metrics.update(found)
            problems += workload.problems
            attempted += sum(phase.attempted for phase in phases)
            failed += sum(phase.failed for phase in phases)
    finally:
        tracer.dump(WORK / f"spans-{first}-{seed}-{os.getpid()}.jsonl")
    return {"problems": problems, "ports": ports, "pids": pids, "attempted": attempted,
            "failed": failed, "metrics": metrics}
