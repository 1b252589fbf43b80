"""serve-mix: one closed-loop client against ``repro serve --workers 2``.

The client waits for each reply before it sends the next request, as
the build tools that call the service do.  Pass 0 sends every request
of the working set once: trace compiles (cache misses, compiled in the
server thread) and program compiles (fanned out by the worker pool).
Every later pass sends the same set again, so trace requests become
cache hits, each followed by an ``/v1/analyze`` request of the same
source, with a few fresh traces (misses, cache writes) in between so
that misses fall all over the run.  Passes repeat as long as another
one brings the run nearer to its time (at least five passes).

Untraced runs start a real server process; the traced run builds the
server with ``make_server`` inside this process so the tracer's
wrappers see its calls (pool workers stay unmeasured).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from inputs import (
    SERVE_FRESH_PER_PASS,
    SERVE_MAX_PASSES,
    SERVE_PRESET,
    SERVE_WORKING_SET,
    serve_inputs,
    trace_memory,
)

import checks

WORKERS = 2
#: Server set-ups timed per untraced run (``setup_s`` is their median):
#: the first ones before the measured passes, the last of those serving
#: them, and the rest after, so that the samples span the run.
SETUP_SAMPLES = 7
SETUP_BEFORE = 4
#: Repeat passes after pass 0 that every run makes at least, and that
#: the traced run records: enough for at least 200 cache hits.
REPEAT_PASSES = 4
RUN_DIR = ".perfbench_run"
MACHINE = {"preset": SERVE_PRESET}


def call(url: str, path: str, payload: Optional[dict] = None) -> Tuple[int, dict]:
    """One HTTP request (POST when there is a payload); status and body."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode() or "{}")


def wait_healthy(url: str) -> None:
    """Block until ``/healthz`` reports ``ok`` (no coarse sleeps)."""
    deadline = time.monotonic() + 60
    while True:
        try:
            status, body = call(url, "/healthz")
            if status == 200 and body.get("status") == "ok":
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server did not become healthy in 60 s")
        time.sleep(0.001)


class ServerProcess:
    """``python -m repro serve`` on a fresh cache directory."""

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        began = time.perf_counter()
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--cache-dir", cache_dir],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, start_new_session=True,
        )
        try:
            self.url = self._read_url()
            wait_healthy(self.url)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - began

    def peak_rss_mb(self) -> float:
        """The server process's peak resident memory so far, in MB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def _read_url(self) -> str:
        for line in self.process.stdout:
            marker = "listening on "
            if marker in line:
                return line.split(marker, 1)[1].strip()
        raise RuntimeError("server exited before listening")

    def stop(self) -> None:
        """SIGTERM drains the server, which shuts its pool down; a server
        that does not exit in time is killed with its whole group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class InProcessServer:
    """The same server built with ``make_server`` in this process."""

    def __init__(self, cache_dir: str) -> None:
        from repro.serve.server import make_server

        self.cache_dir = cache_dir
        self.server = make_server(port=0, cache=cache_dir, workers=WORKERS)
        host, port = self.server.server_address[:2]
        self.url = f"http://{host}:{port}"
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()
        wait_healthy(self.url)

    def stop(self) -> None:
        self.server.shutdown()
        self.thread.join()
        self.server.server_close()
        self.server.app.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def percentile_ms(entries: list, percentile: int) -> float:
    """A percentile of the requests' latency, in ms."""
    values = [entry[1] * 1000.0 for entry in entries]
    return statistics.quantiles(values, n=100)[percentile - 1]


def per_pass_ms(entries: list, percentile: int) -> float:
    """The median over passes of each pass's latency percentile, in ms.
    A burst of load on the machine then moves the few passes it falls
    in, not the run's figure."""
    passes: Dict[int, list] = {}
    for entry in entries:
        passes.setdefault(entry[3], []).append(entry)
    return statistics.median(
        percentile_ms(group, percentile) for group in passes.values()
    )


class ServeMix:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.traces, self.origins, self.programs = serve_inputs(seed)
        # Input IR instructions of each trace request's source (a
        # rendered trace has one instruction a line).
        self.trace_sizes = [source.count("\n") + 1 for source in self.traces]
        self.run_dir = os.path.join(RUN_DIR, str(os.getpid()))

    def miss_ms_gmean(self, misses: list) -> float:
        """The geometric mean over the real traces of each one's median
        miss latency, in ms.  Every real trace weighs the same, whatever
        the number of its copies the run happened to send; a plain
        median over the misses, or over the traces, falls between two
        traces and jumps with their order."""
        copies: Dict[int, list] = {}
        for entry in misses:
            copies.setdefault(self.origins[entry[0]], []).append(entry)
        return 1000.0 * statistics.geometric_mean(
            statistics.median(entry[1] for entry in group)
            for group in copies.values()
        )

    def ops_per_s(self, log: Dict[str, list]) -> float:
        """Input IR instructions per second of client latency over the
        cache hits and analyses of each repeat pass; the median over the
        passes.  Every repeat pass sends the same hits and analyses, so
        a burst of load from outside moves only the passes it falls in.
        Misses are left out (``compile_ms_gmean`` covers them), and so
        are program requests: a repeat recompiles every trace whose
        cache key changes from compile to compile, and their time
        spread by a third between runs (README.md, "Faults")."""
        work: Dict[int, int] = {}
        took: Dict[int, float] = {}
        for kind in ("hit", "analyze"):
            for index, seconds, reply, number in log[kind]:
                if reply is not None:
                    work[number] = work.get(number, 0) + self.trace_sizes[index]
                    took[number] = took.get(number, 0.0) + seconds
        return statistics.median(work[n] / took[n] for n in work)

    @staticmethod
    def code_totals(log: Dict[str, list]) -> Tuple[int, int]:
        """Cycles and static ops of the working set's replies: issue
        cycles of every working-set trace, simulated cycles of every
        program, from their first replies."""
        cycles = code_ops = 0
        for index, _, reply, _ in log["miss"]:
            if reply is not None and index < SERVE_WORKING_SET:
                cycles += reply["issue_cycles"]
                code_ops += reply["op_count"]
        for _, _, reply, number in log["program"]:
            if reply is not None and number == 0:
                cycles += reply["dynamic_cycles"]
                code_ops += reply["static_ops"]
        return cycles, code_ops

    # -- the request loop ------------------------------------------------
    def _send(self, url: str, path: str, payload: dict,
              tracer) -> Tuple[float, Optional[dict]]:
        span = tracer.open("serve.request", root=True) if tracer else None
        if span is not None:
            tracer.cause = span.id
        began = time.perf_counter()
        status, body = call(url, path, payload)
        took = time.perf_counter() - began
        if tracer:
            tracer.cause = None
            tracer.close(span)
        if status != 200 or not body.get("ok"):
            return took, None
        return took, body["result"]

    def _trace(self, url: str, index: int, kind: str, number: int, log,
               tracer) -> None:
        took, result = self._send(url, "/v1/compile", {
            "kind": "trace", "source": self.traces[index], "machine": MACHINE,
            "method": "ursa",
        }, tracer)
        log[kind].append((index, took, result, number))
        if result is not None and result["cache"]["hit"] != (kind == "hit"):
            log["errors"].append(f"trace {index}: expected a cache {kind}")

    def _pass(self, url: str, number: int, log: Dict[str, list], tracer) -> None:
        """Pass 0 compiles the working set; later passes repeat it, each
        trace followed by its analysis, with fresh traces in between."""
        program_every = max(1, SERVE_WORKING_SET // len(self.programs))
        program_at = {
            program_every * (k + 1) - 1: k for k in range(len(self.programs))
        }
        fresh_every = SERVE_WORKING_SET // SERVE_FRESH_PER_PASS
        fresh = (SERVE_WORKING_SET
                 + (number - 1) * SERVE_FRESH_PER_PASS)
        for index in range(SERVE_WORKING_SET):
            if number == 0:
                self._trace(url, index, "miss", number, log, tracer)
            else:
                self._trace(url, index, "hit", number, log, tracer)
                took, result = self._send(url, "/v1/analyze", {
                    "source": self.traces[index], "machine": MACHINE,
                }, tracer)
                log["analyze"].append((index, took, result, number))
                if index % fresh_every == fresh_every - 1:
                    self._trace(url, fresh, "miss", number, log, tracer)
                    fresh += 1
            if index in program_at:
                source, method = self.programs[program_at[index]]
                took, result = self._send(url, "/v1/compile", {
                    "kind": "program", "source": source, "machine": MACHINE,
                    "method": method,
                }, tracer)
                log["program"].append((program_at[index], took, result, number))

    def run(self, seconds: float, trace: bool) -> dict:
        os.makedirs(self.run_dir, exist_ok=True)
        setup: List[float] = []
        tracer = counters = None
        try:
            if trace:
                from tracer import Tracer

                server = InProcessServer(os.path.join(self.run_dir, "cache"))
                tracer = Tracer()
                tracer.install()
            else:
                for sample in range(SETUP_BEFORE):
                    if sample:
                        server.stop()
                    server = ServerProcess(
                        os.path.join(self.run_dir, f"cache{sample}")
                    )
                    setup.append(server.ready_s)
            cpus = os.sched_getaffinity(0)
            try:
                if not trace:
                    # The client and the server's request threads share
                    # one CPU, so each hand-off of the closed loop wakes
                    # a thread on the CPU that is running: on a virtual
                    # machine, waking an idle CPU waits on the host and
                    # made hit and miss latencies spread twice as wide.
                    # The pool workers, forked before, keep every CPU.
                    for pid in (server.process.pid, 0):
                        os.sched_setaffinity(pid, {min(cpus)})
                log, passes, elapsed, counters = self._loop(
                    server, seconds, tracer
                )
                if not trace:
                    peak_mb = server.peak_rss_mb()
            finally:
                os.sched_setaffinity(0, cpus)
                if tracer:
                    tracer.uninstall()
                server.stop()
            if not trace:
                for sample in range(SETUP_BEFORE, SETUP_SAMPLES):
                    server = ServerProcess(
                        os.path.join(self.run_dir, f"cache{sample}")
                    )
                    setup.append(server.ready_s)
                    server.stop()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            try:
                os.rmdir(RUN_DIR)
            except OSError:
                pass

        problems, differing = self.check(log)
        problems += log["errors"]
        requests = [
            entry for kind in ("miss", "hit", "analyze", "program")
            for entry in log[kind]
        ]
        failed = sum(1 for entry in requests if entry[2] is None)
        if counters.get("serve.shed", 0):
            problems.append(f"{counters['serve.shed']} requests shed")
        unbounded = {}
        if trace:
            from tracer import per_layer

            metrics = per_layer(tracer, counters, 1, "serve.request")
        else:
            cycles, code_ops = self.code_totals(log)
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "ops_per_s": {
                    "value": self.ops_per_s(log), "unit": "1/s",
                },
                "compile_ms_gmean": {
                    "value": self.miss_ms_gmean(log["miss"]), "unit": "ms",
                },
                "cycles_total": {"value": cycles, "unit": "cycles"},
                "code_ops_total": {"value": code_ops, "unit": "ops"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            # Printed with the details only: every workload prints the
            # same end-to-end metrics, and these have no counterpart on
            # the compile workloads (README.md, "End-to-end metrics").
            unbounded = {
                "req_per_s": len(requests) / elapsed,
                "hit_ms_p50": per_pass_ms(log["hit"], 50),
                "hit_ms_p95": per_pass_ms(log["hit"], 95),
                "program_ms_p50": per_pass_ms(log["program"], 50),
            }
        return {
            "correct": not problems,
            "attempted": len(requests),
            "failed": failed,
            "metrics": metrics,
            "detail": {
                "passes": passes,
                "hits": len(log["hit"]),
                "differ_from_in_process": differing,
                "unbounded_metrics": unbounded,
                "problems": problems[:20],
            },
        }

    def _loop(self, server, seconds: float, tracer):
        # Each entry: (input index, seconds, result or None, pass number).
        log: Dict[str, list] = {
            "miss": [], "hit": [], "analyze": [], "program": [], "errors": [],
        }
        passes = 0
        counters: Dict[str, float] = {}
        repeat_seconds: List[float] = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            self._pass(server.url, passes, log, tracer)
            if passes:
                repeat_seconds.append(time.perf_counter() - began)
            passes += 1
            if passes <= REPEAT_PASSES:
                continue
            if tracer and tracer.recording:
                tracer.recording = False
                counters = dict(server.server.app.observer.counters)
            # As many passes as come nearest to the run's time.
            elapsed = time.perf_counter() - start
            if (elapsed + statistics.mean(repeat_seconds) / 2 >= seconds
                    or passes == SERVE_MAX_PASSES):
                break
        elapsed = time.perf_counter() - start
        if not tracer:
            status, stats = call(server.url, "/v1/stats")
            counters = stats.get("counters", {}) if status == 200 else {}
        return log, passes, elapsed, counters

    # -- checks -----------------------------------------------------------
    def check(self, log: Dict[str, list]) -> Tuple[List[str], List[str]]:
        """Check every reply against computations made in this process.

        Every trace reply is read back and simulated against the
        reference interpreter, its length held to the bound
        (:func:`checks.reply_problems`), and every hit must equal its
        miss.  Returns the problems and the replies that differ from an
        in-process compile of the same input: those are listed, not
        failed, because the compiler's output can differ between two
        processes even under one hash seed (README.md, "Faults"); a
        differing reply is held to the same checks as any other.
        """
        import random

        from repro.analyze import analyze_source
        from repro.ir.parser import parse_program
        from repro.machine.presets import preset
        from repro.pipeline import compile_trace
        from repro.program_compiler import (
            compile_program,
            verify_compiled_program,
        )

        machine = preset(SERVE_PRESET)
        rng = random.Random(f"serve-mix-memory:{self.seed}")
        problems: List[str] = []
        differing: List[str] = []
        first_reply: Dict[int, str] = {}
        for kind in ("miss", "hit"):
            for index, _, reply, _ in log[kind]:
                if reply is None:
                    continue
                text = reply["program"]
                if first_reply.setdefault(index, text) != text:
                    problems.append(f"trace {index}: hit differs from its miss")
        lengths: Dict[int, int] = {}
        for index, text in sorted(first_reply.items()):
            trace = list(parse_program(self.traces[index]).blocks[0].instructions)
            problems += [f"trace {index} reply: {p}" for p in checks.reply_problems(
                text, trace, machine, trace_memory(trace, rng)
            )]
            result = compile_trace(trace, machine, method="ursa", verify=False)
            lengths[index] = result.schedule.length
            if str(result.program) != text:
                differing.append(f"trace {index}")
        reports: Dict[int, dict] = {}
        for index, _, reply, _ in log["analyze"]:
            if reply is None:
                continue
            if index not in reports:
                expected = analyze_source(self.traces[index], machine=machine)
                reports[index] = json.loads(json.dumps(expected.to_dict()))
            report = reports[index]
            if reply["report"] != report:
                problems.append(f"analyze {index}: report differs in-process")
            for feasibility in report.get("feasibility", {}).values():
                bound = feasibility["length"]["lower_bound"]
                problems += checks.bound_problems(
                    lengths.get(index, bound), bound, f"analyze {index}"
                )
        expected_programs = {}
        for index, (source, method) in enumerate(self.programs):
            program = parse_program(source)
            compiled = compile_program(program, machine, method=method)
            run, ok = verify_compiled_program(compiled)
            problems += [f"program {index}: {p}" for p in checks.check_program(
                compiled, run.memory, {}
            )]
            signatures = {
                head: checks.signature_digest(trace.program)
                for head, trace in compiled.traces.items()
            }
            expected_programs[index] = (signatures, run.cycles)
        first_program: Dict[int, dict] = {}
        for index, _, reply, _ in log["program"]:
            if reply is None:
                continue
            if not reply.get("verified"):
                problems.append(f"program {index}: not verified")
            if first_program.setdefault(index, reply["signatures"]) != reply["signatures"]:
                problems.append(f"program {index}: repeat differs from first")
            signatures, dynamic_cycles = expected_programs[index]
            if (reply["signatures"], reply.get("dynamic_cycles")) == (
                signatures, dynamic_cycles
            ):
                continue
            differing.append(f"program {index}")
            if sorted(reply["signatures"]) != sorted(signatures):
                problems.append(f"program {index}: other traces than "
                                "the in-process compile")
        return problems, sorted(set(differing))
