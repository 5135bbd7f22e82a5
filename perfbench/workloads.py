"""The workloads: inputs, set-up, the closed-loop load, the checks.

``BENCHMARK.json`` measures ``asr_offline_paper`` and ``asr_stream_wire``
end to end.  ``asr_streams_inproc`` and ``lm_generate_wire`` spread past
the largest bound allowed between identical runs (see README.md); they
still run and are checked here, and the traced run profiles them.

Each workload makes its inputs from the seed, builds and starts the
program through its public surface (``repro.runtime.compile``,
``CompiledModel.run/session/serve/save``, ``Server.submit/stats``,
``NetServer``, ``Client``/``NetSession``, ``repro.lm``), drives it from
one process with at most two threads, and checks every output against a
computation made apart from the program.  Model weights are fixed (seed
0); ``--seed`` moves only the inputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from array import array
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from perfbench import procfs
from perfbench.reference import (
    DenseReference,
    fixed_point_bound,
    float_problem,
    logits_problem,
    top_k_problem,
)
from repro.config import RNNSpec
from repro.nn.rnn import StackedRNNClassifier
from repro.runtime import CompiledModel, compile

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space of a run (artifacts, span dumps), inside the checkout.
WORK = ROOT / ".perfbench_out"

WEIGHT_BITS = 12
PWL_SEGMENTS = 16
#: The paper's Table I LSTM: 1024 cells, projection 512, peephole, block 8.
PAPER_SPEC = RNNSpec(
    cell_type="lstm", input_size=153, layer_sizes=(1024,), output_size=39,
    block_sizes=(8,), peephole=True, projection_size=512,
)
#: TIMIT-scale LSTM-64 (39 features in, 39 phones out), block 8.
TIMIT_SPEC = RNNSpec(
    cell_type="lstm", input_size=39, layer_sizes=(64,), output_size=39,
    block_sizes=(8,),
)
OFFLINE_UTTERANCES, OFFLINE_BATCH = 64, 8
OFFLINE_FRAMES = (80, 160)
STREAM_POOL, STREAM_FRAMES = 16, (50, 150)
INPROC_STREAMS = 16  # equal to max_batch: see README
LM_LAYERS, LM_BLOCK, LM_EPOCHS = (32,), (4,), 3
LM_PROMPT, LM_STEPS, LM_TEMPERATURE, LM_TOP_K = "the ", 200, 0.8, 5
LM_POOL = 16
CLIENT_THREADS = 2
#: Length of one window of the timed phase (see ``Phase``).
WINDOW_S = 2.0
#: How long a stopped server's processes may take to end.
EXIT_WAIT_S = 10.0


@dataclass
class Phase:
    """What one timed phase did: per-operation latencies and totals.

    Operation ``i`` started at ``starts[i]``, took ``latencies[i]`` and
    completed ``counts[i]`` items; these are flat arrays, so that a run of
    many short operations adds little to the benchmark's own memory, which
    ``peak_rss_mb`` counts.  ``marks`` holds ``(wall, cpu)`` snapshots taken
    about every ``WINDOW_S``: between two marks is one window, and the
    end-to-end rate and CPU per item are medians over windows (see
    ``window_rates``).
    """

    latencies: array = field(default_factory=lambda: array("d"))
    starts: array = field(default_factory=lambda: array("d"))
    counts: array = field(default_factory=lambda: array("d"))
    marks: list[tuple[float, float]] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    cpu_s: dict[str, float] = field(default_factory=dict)
    peak_rss_mib: float = 0.0

    def complete(self, start: float, end: float, items: int) -> None:
        """One operation finished: ``items`` done between ``start`` and ``end``."""
        self.latencies.append(end - start)
        self.starts.append(start)
        self.counts.append(items)
        self.items += items

    def tick(self, cpu: Callable[[], float]) -> None:
        """Mark a window boundary if ``WINDOW_S`` passed since the last one."""
        now = time.perf_counter()
        if not self.marks or now - self.marks[-1][0] >= WINDOW_S:
            self.marks.append((now, cpu()))

    def merge(self, other: "Phase") -> None:
        self.latencies += other.latencies
        self.starts += other.starts
        self.counts += other.counts
        self.items += other.items
        self.attempted += other.attempted
        self.failed += other.failed


def window_rates(phase: Phase) -> tuple[list[float], list[float]]:
    """Items per second and CPU seconds per item in each window.

    An operation's items count as done evenly over its span, so a window
    gets the share of each operation that falls inside it: a 200-token
    request straddling a boundary counts in both windows, not in one.
    """
    if not phase.starts or len(phase.marks) < 2:
        return [], []
    start, items = np.frombuffer(phase.starts), np.frombuffer(phase.counts)
    length = np.maximum(np.frombuffer(phase.latencies), 1e-12)

    def done_by(moment: float) -> float:
        return float(np.sum(items * np.clip((moment - start) / length, 0.0, 1.0)))

    rates, cpu_per_item = [], []
    done = [done_by(wall) for wall, _ in phase.marks]
    for (wall0, cpu0), (wall1, cpu1), items0, items1 in zip(
            phase.marks, phase.marks[1:], done, done[1:]):
        count = items1 - items0
        rates.append(count / (wall1 - wall0))
        if count > 0:
            cpu_per_item.append((cpu1 - cpu0) / count)
    return rates, cpu_per_item


def stratified_lengths(rng: np.random.Generator, count: int, span: tuple[int, int]) -> np.ndarray:
    """``count`` lengths spread evenly over ``span`` with seeded jitter, so
    every seed gets the same length distribution and different inputs."""
    low, high = span
    grid = low + (np.arange(count) * (high - low)) // max(1, count - 1)
    jitter = rng.integers(-3, 4, size=count)
    return np.clip(grid + jitter, low, high)


def utterance_pool(seed: int) -> list[np.ndarray]:
    """The streamed utterances: ``(T, 39)`` standardized feature frames."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(stratified_lengths(rng, STREAM_POOL, STREAM_FRAMES))
    return [rng.standard_normal((int(n), TIMIT_SPEC.input_size)) for n in lengths]


def _cpu_snapshot(pids: dict[str, int]) -> dict[str, float]:
    snapshot = {"client": time.process_time()}
    for role, pid in pids.items():
        snapshot[role] = procfs.cpu_seconds(pid)
    return snapshot


class ServedArtifact:
    """``perfbench/serve.py`` running one artifact in a child process."""

    def __init__(self, artifact: Path):
        self.artifact = artifact
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("serve.py")), str(artifact)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server process exited with {self.proc.returncode}")
        self.port = int(json.loads(line)["port"])

    def pids(self) -> dict[str, int]:
        """The server parent and its worker process(es)."""
        roles = {"net_parent": self.proc.pid}
        for index, pid in enumerate(procfs.descendants(self.proc.pid)):
            try:
                cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                continue
            # The shared-memory resource tracker idles; the worker is the
            # other spawned child.
            role = "resource_tracker" if b"resource_tracker" in cmdline else "worker"
            roles[role if role not in roles else f"{role}{index}"] = pid
        return roles

    def close(self) -> list[int]:
        """Stop the server and wait for each of its processes to end.

        Returns their pids.  The resource tracker is not the server's to
        stop: it exits on its own once the server has, so it is waited for
        (up to ``EXIT_WAIT_S``) rather than killed.
        """
        pids = list(self.pids().values())
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.artifact.unlink(missing_ok=True)
        deadline = time.perf_counter() + EXIT_WAIT_S
        while any(map(procfs.alive, pids)) and time.perf_counter() < deadline:
            time.sleep(0.01)
        return pids


class Workload:
    """Base: ``setup`` (timed by the caller), ``measure``, ``check``, ``close``.

    ``setup`` ends with the first output of the program, kept in
    ``self.first``; later checks compare it with the expected output.
    """

    name = ""
    #: The latency percentile reported as ``latency_tail_ms``.
    tail = 0.99

    def __init__(self, seed: int):
        self.seed = seed
        self.problems: list[str] = []
        self.server: ServedArtifact | None = None
        self.ports: list[int] = []
        #: Every server process seen (parent, worker, resource tracker):
        #: each must have ended when the run ends.
        self.server_processes: list[int] = []
        self.compile_s = 0.0

    def fail(self, message: str) -> None:
        """A wrong output: the run is not correct."""
        self.problems.append(f"{self.name}: {message}")

    def error(self, phase: Phase, message: str) -> None:
        """An operation that raised: counted as failed, and the run is not
        correct (no operation of these workloads is expected to fail)."""
        phase.failed += 1
        self.fail(f"operation failed: {message}")

    def _compile(self, model, **options) -> CompiledModel:
        start = time.perf_counter()
        compiled = compile(model, cache=False, **options)
        self.compile_s = time.perf_counter() - start
        return compiled

    def _serve(self, compiled: CompiledModel) -> None:
        WORK.mkdir(exist_ok=True)
        artifact = WORK / f"{self.name}-{os.getpid()}.npz"
        compiled.save(artifact)
        self.server = ServedArtifact(artifact)
        self.ports.append(self.server.port)

    def prepare(self) -> None:
        """Compute the expected outputs (after set-up, before the load)."""

    def server_pids(self) -> dict[str, int]:
        return self.server.pids() if self.server else {}

    def peak_rss(self) -> float:
        pids = [os.getpid(), *self.server_pids().values()]
        return sum(procfs.peak_rss_mib(pid) for pid in pids)

    def close(self) -> None:
        if self.server is not None:
            self.server_processes += self.server.close()
            self.server = None


# ----------------------------------------------------------------------
# asr_offline_paper
# ----------------------------------------------------------------------


class AsrOfflinePaper(Workload):
    name = "asr_offline_paper"
    tail = 0.75

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        lengths = np.sort(stratified_lengths(rng, OFFLINE_UTTERANCES, OFFLINE_FRAMES))
        self.batches: list[tuple[np.ndarray, np.ndarray]] = []
        for start in range(0, OFFLINE_UTTERANCES, OFFLINE_BATCH):
            sizes = lengths[start:start + OFFLINE_BATCH]
            batch = np.zeros((int(sizes.max()), OFFLINE_BATCH, PAPER_SPEC.input_size))
            for column, size in enumerate(sizes):
                batch[:size, column] = rng.standard_normal((int(size), PAPER_SPEC.input_size))
            self.batches.append((batch, sizes))
        self.sampled = seed % len(self.batches)
        self.sampled_output: np.ndarray | None = None
        self.outputs: dict[int, bytes] = {}

    def setup(self) -> None:
        model = StackedRNNClassifier(PAPER_SPEC, structured=True, rng=np.random.default_rng(0))
        self.compiled = self._compile(
            model, backend="fixed", weight_bits=WEIGHT_BITS, pwl_segments=PWL_SEGMENTS
        )
        start = time.perf_counter()
        first = self.compiled.run(self.batches[0][0])
        self.first_call_s = time.perf_counter() - start
        self.first = first
        self.outputs[0] = first.tobytes()
        if self.sampled == 0:
            self.sampled_output = first

    def _score(self, index: int, phase: Phase) -> None:
        batch, sizes = self.batches[index]
        phase.attempted += 1
        start = time.perf_counter()
        out = self.compiled.run(batch)
        phase.complete(start, time.perf_counter(), int(sizes.sum()))
        seen = self.outputs.setdefault(index, out.tobytes())
        if seen != out.tobytes():
            phase.failed += 1
            self.fail(f"batch {index} scored to different bytes on a repeat")
        if index == self.sampled and self.sampled_output is None:
            self.sampled_output = out

    def measure(self, seconds: float | None = None, rounds: int = 0) -> Phase:
        """Score batches in order, cycling, for ``seconds`` (or ``rounds``
        whole passes over the batches)."""
        phase = Phase()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        deadline = wall0 + (seconds or 0.0)
        index = 0
        phase.tick(time.process_time)
        while (index < rounds * len(self.batches) if rounds
               else time.perf_counter() < deadline):
            self._score(index % len(self.batches), phase)
            phase.tick(time.process_time)
            index += 1
        phase.elapsed = time.perf_counter() - wall0
        phase.cpu_s = {"client": time.process_time() - cpu0}
        phase.peak_rss_mib = self.peak_rss()
        return phase

    def check(self) -> None:
        if self.sampled_output is None:
            self._score(self.sampled, Phase())
        batch, sizes = self.batches[self.sampled]
        reference = DenseReference(PAPER_SPEC, self.compiled.state, pwl_segments=PWL_SEGMENTS)
        hardware = reference.run(batch)
        for column, size in enumerate(sizes):
            want = hardware[:size, column]
            problem = logits_problem(
                f"fixed logits, batch {self.sampled} utterance {column}",
                self.sampled_output[:size, column], want,
                fixed_point_bound(PAPER_SPEC, WEIGHT_BITS, want),
            )
            if problem:
                self.fail(problem)
        # Float backend on the first frames of the same batch (the
        # autograd graph is slow at paper scale) against exact math.
        frames = batch[:12]
        exact = reference.activations(None).run(frames)
        float_out = compile(self.compiled, backend="float", cache=False).run(frames)
        problem = float_problem("float logits", float_out, exact)
        if problem:
            self.fail(problem)


# ----------------------------------------------------------------------
# Streams of the TIMIT-scale model.
# ----------------------------------------------------------------------


class _TimitStreams(Workload):
    """Shared by the wire and the in-process streaming workloads."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.pool = utterance_pool(seed)

    def _build(self) -> CompiledModel:
        model = StackedRNNClassifier(TIMIT_SPEC, structured=True, rng=np.random.default_rng(0))
        return self._compile(
            model, backend="fixed", weight_bits=WEIGHT_BITS, pwl_segments=PWL_SEGMENTS
        )

    def _expect(self, compiled: CompiledModel) -> None:
        """Per-frame logits of a standalone width-1 ``Session``, as bytes."""
        self.expected: list[list[bytes]] = []
        for utterance in self.pool:
            session = compiled.session()
            self.expected.append([session.push(frame).tobytes() for frame in utterance])
        if self.first.tobytes() != self.expected[0][0]:
            self.fail("first served frame differs from a standalone Session")

    def check(self) -> None:
        """Fixed logits of the pool within the 12-bit bound of the reference."""
        reference = DenseReference(TIMIT_SPEC, self.compiled.state, pwl_segments=PWL_SEGMENTS)
        for index, utterance in enumerate(self.pool):
            want = reference.run(utterance[:, None, :])[:, 0]
            got = np.stack([np.frombuffer(row) for row in self.expected[index]])
            problem = logits_problem(
                f"fixed logits, utterance {index}", got, want,
                fixed_point_bound(TIMIT_SPEC, WEIGHT_BITS, want),
            )
            if problem:
                self.fail(problem)


def _run_lanes(workload: Workload, target, seconds: float | None, count: int) -> Phase:
    """``CLIENT_THREADS`` connections run ``target`` for ``seconds`` (or
    ``count`` operations each) while this thread marks the windows."""
    pids = workload.server_pids()

    def cpu() -> float:
        return sum(_cpu_snapshot(pids).values())

    lanes = [Phase() for _ in range(CLIENT_THREADS)]
    phase = Phase()
    before = _cpu_snapshot(pids)
    wall0 = time.perf_counter()
    deadline = wall0 + (seconds or 0.0)
    threads = [
        threading.Thread(target=target, args=(lane, deadline, count, lanes[lane]))
        for lane in range(CLIENT_THREADS)
    ]
    phase.tick(cpu)
    for thread in threads:
        thread.start()
    for thread in threads:
        while thread.is_alive():
            thread.join(timeout=WINDOW_S / 20)
            phase.tick(cpu)
    phase.elapsed = time.perf_counter() - wall0
    for lane in lanes:
        phase.merge(lane)
    after = _cpu_snapshot(pids)
    phase.cpu_s = {role: after[role] - before[role] for role in after}
    phase.peak_rss_mib = workload.peak_rss()
    return phase


class AsrStreamWire(_TimitStreams):
    name = "asr_stream_wire"
    tail = 0.75

    def setup(self) -> None:
        from repro.runtime.net import Client

        self.compiled = self._build()
        self._serve(self.compiled)
        with Client("127.0.0.1", self.server.port) as client:
            session = client.session("setup")
            self.first = session.push(self.pool[0][0])
            session.close()

    def prepare(self) -> None:
        self._expect(CompiledModel.load(self.server.artifact))

    def _stream(self, lane: int, deadline: float, utterances: int, phase: Phase,
                address=None, prefix: str = "lane") -> None:
        """One connection: open, push every frame, close; next utterance.

        Lane ``k`` streams utterances ``k, k + 2, k + 4, ...`` of the pool
        until ``deadline`` (or for ``utterances`` whole utterances).
        """
        from repro.runtime.net import Client

        host, port = address or ("127.0.0.1", self.server.port)
        client = Client(host, port)
        try:
            count = 0
            while (count < utterances if utterances
                   else time.perf_counter() < deadline):
                index = (lane + CLIENT_THREADS * count) % len(self.pool)
                name = f"{prefix}{lane}-{count}"
                count += 1
                phase.attempted += 1
                try:
                    session = client.session(name)
                except Exception as error:  # counted and reported, load goes on
                    self.error(phase, f"open {name}: {error!r}")
                    continue
                expected = self.expected[index]
                for position, frame in enumerate(self.pool[index]):
                    if not utterances and time.perf_counter() >= deadline:
                        break
                    phase.attempted += 1
                    start = time.perf_counter()
                    try:
                        logits = session.push(frame)
                    except Exception as error:  # counted and reported
                        self.error(phase, f"push {name}[{position}]: {error!r}")
                        break
                    phase.complete(start, time.perf_counter(), 1)
                    if logits.tobytes() != expected[position]:
                        phase.failed += 1
                        self.fail(f"{name} frame {position} differs from a standalone Session")
                phase.attempted += 1
                try:
                    session.close()
                except Exception as error:  # counted and reported
                    self.error(phase, f"close {name}: {error!r}")
        finally:
            client.close()

    def measure(self, seconds: float | None = None, utterances: int = 0) -> Phase:
        """Two connections stream for ``seconds`` (or ``utterances`` each)."""
        return _run_lanes(self, self._stream, seconds, utterances)


class AsrStreamsInproc(_TimitStreams):
    name = "asr_streams_inproc"
    tail = 0.9

    def setup(self) -> None:
        from repro.runtime import Server

        self.compiled = self._build()
        self.server_in = Server(self.compiled, max_batch=INPROC_STREAMS, max_delay_s=0.002)
        token = object()
        future = self.server_in.submit(token, self.pool[0][0], self.server_in.initial_state())
        self.first = future.result()[0]

    def prepare(self) -> None:
        self._expect(self.compiled)

    def measure(self, seconds: float | None = None, rows_per_stream: int = 0) -> Phase:
        """Each stream submits its next frame when the previous resolves,
        for ``seconds`` (or ``rows_per_stream`` rows each)."""
        server = self.server_in
        phase = Phase()
        streams = []
        for lane in range(INPROC_STREAMS):
            server.register_session()
            streams.append({"token": object(), "utterance": lane % len(self.pool),
                            "position": 0, "state": server.initial_state(), "rows": 0})
        pending = {}

        def submit(stream) -> None:
            frame = self.pool[stream["utterance"]][stream["position"]]
            phase.attempted += 1
            stream["sent"] = time.perf_counter()
            pending[server.submit(stream["token"], frame, stream["state"])] = stream

        cpu0, wall0 = time.process_time(), time.perf_counter()
        deadline = wall0 + (seconds or 0.0)
        phase.tick(time.process_time)
        for stream in streams:
            submit(stream)
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            phase.tick(time.process_time)
            now = time.perf_counter()
            for future in done:
                stream = pending.pop(future)
                try:
                    logits, state = future.result()
                except Exception as error:  # counted and reported
                    self.error(phase, f"submit: {error!r}")
                    continue
                phase.complete(stream["sent"], now, 1)
                stream["rows"] += 1
                utterance, position = stream["utterance"], stream["position"]
                if logits.tobytes() != self.expected[utterance][position]:
                    phase.failed += 1
                    self.fail(f"stream row {utterance}[{position}] differs from a standalone Session")
                position += 1
                if position == len(self.pool[utterance]):
                    utterance, position = (utterance + INPROC_STREAMS) % len(self.pool), 0
                    state = server.initial_state()
                stream.update(utterance=utterance, position=position, state=state)
                if (stream["rows"] < rows_per_stream if rows_per_stream
                        else now < deadline):
                    submit(stream)
        for stream in streams:
            server.release_session(stream["token"])
        phase.elapsed = time.perf_counter() - wall0
        phase.cpu_s = {"client": time.process_time() - cpu0}
        phase.peak_rss_mib = self.peak_rss()
        return phase

    def close(self) -> None:
        server = getattr(self, "server_in", None)
        if server is not None:
            server.close()
        super().close()


# ----------------------------------------------------------------------
# lm_generate_wire
# ----------------------------------------------------------------------


class LmGenerateWire(Workload):
    name = "lm_generate_wire"
    tail = 0.90

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.seeds = [int(value) for value in rng.integers(0, 2**31 - 1, size=LM_POOL)]

    def _params(self, index: int) -> dict:
        return {"steps": LM_STEPS, "temperature": LM_TEMPERATURE,
                "top_k": LM_TOP_K, "seed": self.seeds[index]}

    def setup(self) -> None:
        from repro.lm import DEMO_TEXT, CharVocab, LMTrainConfig, build_char_lm, train_char_lm
        from repro.runtime.net import Client

        vocab = CharVocab.from_text(DEMO_TEXT)
        model = build_char_lm(vocab.size, layer_sizes=LM_LAYERS, cell_type="gru",
                              block_sizes=LM_BLOCK, seed=0)
        train_char_lm(model, vocab.encode(DEMO_TEXT), LMTrainConfig(epochs=LM_EPOCHS, seed=0))
        self.prompt = [int(token) for token in vocab.encode(LM_PROMPT)]
        self.compiled = self._compile(model, backend="float", workload="lm", vocab=vocab)
        self._serve(self.compiled)
        with Client("127.0.0.1", self.server.port) as client:
            session = client.session("setup")
            self.first = session.generate(self.prompt, **self._params(0))
            session.close()

    def prepare(self) -> None:
        self.loaded = CompiledModel.load(self.server.artifact)
        self.expected = [
            self.loaded.session().generate(self.prompt, **self._params(index))
            for index in range(LM_POOL)
        ]
        if self.first != self.expected[0]:
            self.fail("first served generation differs from a standalone Session")

    def _loop(self, lane: int, deadline: float, requests: int, phase: Phase) -> None:
        from repro.runtime.net import Client

        client = Client("127.0.0.1", self.server.port)
        try:
            count = 0
            while count < requests if requests else time.perf_counter() < deadline:
                index = (lane + CLIENT_THREADS * count) % LM_POOL
                name = f"lm{lane}-{count}"
                count += 1
                phase.attempted += 3  # open, generate, close
                try:
                    # The operation timed is the whole generation session:
                    # the worker runs one connection's request while the
                    # other's waits, so the generate call alone takes one
                    # or two service times depending on where the open
                    # and close requests fall, and its median flips
                    # between the two.
                    start = time.perf_counter()
                    session = client.session(name)
                    tokens = session.generate(self.prompt, **self._params(index))
                    session.close()
                    phase.complete(start, time.perf_counter(), LM_STEPS)
                except Exception as error:  # counted and reported
                    self.error(phase, f"{name}: {error!r}")
                    continue
                if tokens != self.expected[index]:
                    phase.failed += 1
                    self.fail(f"{name} tokens differ from a standalone Session")
        finally:
            client.close()

    def measure(self, seconds: float | None = None, requests: int = 0) -> Phase:
        return _run_lanes(self, self._loop, seconds, requests)

    def check(self) -> None:
        """Tokens in the reference top-k; float logits equal the reference."""
        reference = DenseReference(self.compiled.spec, self.compiled.state)
        vocab = self.compiled.spec.input_size
        for index, tokens in enumerate(self.expected):
            fed = np.asarray(self.prompt + tokens[:-1])
            rows = np.eye(vocab)[fed][:, None, :]
            want = reference.run(rows)[:, 0]
            problem = float_problem(f"float LM logits, request {index}",
                                    self.loaded.run(rows)[:, 0], want)
            if problem:
                self.fail(problem)
            sampled_at = want[len(self.prompt) - 1:]
            problem = top_k_problem(tokens, sampled_at, LM_TOP_K, tolerance=1e-9)
            if problem:
                self.fail(f"request {index}: {problem}")


WORKLOADS = {
    cls.name: cls
    for cls in (AsrOfflinePaper, AsrStreamWire, AsrStreamsInproc, LmGenerateWire)
}
