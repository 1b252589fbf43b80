"""One run of one workload, in a process of its own.

``run.py`` starts this file with ``PYTHONHASHSEED`` pinned and
``src`` on the path; it prints the run's result as one JSON line.
Modes besides the measured run:

* ``--setup-only``: build the inputs of a compile workload, print
  ``ready`` and exit (``run.py`` times these to measure set-up);
* ``--replay``: print the signatures of the determinism-replay traces
  (``run.py`` runs this under a second hash seed).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import signal
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from inputs import (
    ALLOC_TRACES,
    REPLAY_TRACES,
    layered_trace,
    program_inputs,
    trace_memory,
)

from repro.machine.presets import preset
from repro.machine.simulator import SimulationError
from repro.pipeline import compile_trace
from repro.program_compiler import compile_program, verify_compiled_program

import checks
from tracer import Tracer, per_layer


# ======================================================================
# Compile workloads: alloc-large and program-suite.
# ======================================================================
class TraceOp:
    """``compile_trace(method="ursa", verify=True)`` of one trace."""

    def __init__(self, label: str, preset_name: str, instructions, memory,
                 expected_signature: Optional[str] = None,
                 replay: bool = False) -> None:
        self.label = label
        self.replay = replay
        self.machine = preset(preset_name)
        self.instructions = instructions
        self.memory = memory
        self.expected_signature = expected_signature
        self.size = len(instructions)

    def execute(self):
        return compile_trace(
            self.instructions, self.machine, method="ursa", verify=True,
            memory=self.memory,
        )

    def failure(self, result) -> Optional[str]:
        """Why the output is wrong, or None when every check passes."""
        if self.expected_signature is not None:
            got = checks.signature_digest(result.program)
            if got != self.expected_signature:
                return (f"signature {got} differs from "
                        f"{self.expected_signature} compiled under the "
                        "second hash seed")
        problems = checks.check_trace(
            result, self.instructions, self.machine, self.memory
        ) + checks.rule_pack_problems(result)
        return problems[0] if problems else None

    def signature(self, result) -> str:
        return checks.signature_digest(result.program)

    def quality(self, result):
        return result.schedule.length, result.program.op_count


class ProgramOp:
    """``compile_program`` + ``verify_compiled_program`` of one program."""

    replay = False

    def __init__(self, label: str, preset_name: str, method: str, program,
                 memory) -> None:
        self.label = label
        self.machine = preset(preset_name)
        self.method = method
        self.program = program
        self.memory = memory
        self.size = sum(1 for _ in program.all_instructions())

    def execute(self):
        """The compiled program, its simulated run (None when the
        simulator rejects the code) and the verification's verdict."""
        compiled = compile_program(self.program, self.machine, method=self.method)
        try:
            run, ok = verify_compiled_program(compiled, memory=self.memory)
        except SimulationError as exc:
            return compiled, None, f"SimulationError: {exc}"
        return compiled, run, (
            None if ok else "simulated memory differs from the interpreter"
        )

    def failure(self, result) -> Optional[str]:
        compiled, run, reason = result
        if reason is not None:
            return reason
        problems = checks.check_program(compiled, run.memory, self.memory)
        return problems[0] if problems else None

    def signature(self, result) -> str:
        compiled, _, _ = result
        return ",".join(
            checks.signature_digest(trace.program)
            for _, trace in sorted(compiled.traces.items())
        )

    def quality(self, result):
        compiled, run, _ = result
        return (run.cycles if run else 0), compiled.total_static_ops()


def alloc_large_ops(seed: int, replay_signatures: Optional[List[str]]):
    """The determinism replays come first in a round, so the replay
    process (``--replay``) compiles them after the same history."""
    import random

    rng = random.Random(f"alloc-large:{seed}")
    ops = []
    for i, (name, n) in enumerate(REPLAY_TRACES):
        instructions = layered_trace(n)
        expected = replay_signatures[i] if replay_signatures else None
        ops.append(TraceOp(f"replay {name}/{n}", name, instructions,
                           trace_memory(instructions, rng), expected,
                           replay=True))
    for name, n in ALLOC_TRACES:
        instructions = layered_trace(n)
        ops.append(TraceOp(f"{name}/{n}", name, instructions,
                           trace_memory(instructions, rng)))
    return ops


def program_suite_ops(seed: int):
    ops = []
    for group, name, program, memory, combos in program_inputs(seed):
        for method, presets in combos:
            for preset_name in presets:
                ops.append(ProgramOp(
                    f"{group} {name} {method}@{preset_name}", preset_name,
                    method, program, memory,
                ))
    return ops


def _another_round(start: float, rounds: int, seconds: float) -> bool:
    """Whether one more round of the mean length so far ends nearer to
    ``seconds`` than stopping now does."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2 < seconds


def run_compile_rounds(ops, seconds: float, tracer: Optional[Tracer]):
    """Whole rounds over ``ops``, as many as come nearest to ``seconds``
    (at least one)."""
    size = sum(op.size for op in ops)
    rates: List[float] = []
    times: Dict[int, List[float]] = {}
    first: Dict[int, Tuple[Optional[str], Optional[str]]] = {}
    problems: List[str] = []
    failures: Dict[str, str] = {}
    changed = set()
    attempted = failed = 0
    cycles_total = code_ops_total = 0
    start = time.perf_counter()
    while not rates or _another_round(start, len(rates), seconds):
        busy = 0.0
        for index, op in enumerate(ops):
            scope = tracer.root("op") if tracer else contextlib.nullcontext()
            began = time.perf_counter()
            with scope:
                try:
                    result, error = op.execute(), None
                except Exception as exc:  # a compile fault: the op failed
                    result, error = None, f"{type(exc).__name__}: {exc}"
            took = time.perf_counter() - began
            busy += took
            if not op.replay:
                times.setdefault(index, []).append(took)
            attempted += 1
            signature = op.signature(result) if error is None else None
            if index not in first:
                reason = error or op.failure(result)
                first[index] = (signature, reason)
                if error is None:
                    # Every operation that returned code counts, failed
                    # or not, so that mending a fault leaves the sums'
                    # make-up as it is.
                    cycles, code_ops = op.quality(result)
                    cycles_total += cycles
                    code_ops_total += code_ops
            elif signature != first[index][0]:
                # The same input compiled again in this process gave
                # another output: judge it too.
                changed.add(op.label)
                if first[index][1] is None and op.failure(result) is not None:
                    problems.append(f"{op.label}: a later round's output "
                                    f"is wrong: {op.failure(result)}")
            reason = first[index][1]
            if reason is not None:
                failed += 1
                failures[op.label] = reason.splitlines()[0][:200]
        rates.append(size / busy)
    return {
        "rounds": len(rates),
        "round_rates": [round(rate, 2) for rate in rates],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "changed": sorted(changed),
        "problems": problems,
        "ops_per_s": statistics.median(rates),
        # Each operation weighs the same, whatever the number of rounds;
        # the determinism replays, a check, are left out.  A median over
        # the operations would jump between those of similar cost.
        "compile_ms_gmean": 1000.0 * statistics.geometric_mean(
            statistics.median(took) for took in times.values()
        ),
        "cycles_total": cycles_total,
        "code_ops_total": code_ops_total,
    }


def compile_workload(ops, seconds: float, trace: bool) -> dict:
    tracer = None
    counters: Dict[str, float] = {}
    if trace:
        from repro import obs

        tracer = Tracer()
        tracer.install()
        with obs.capture() as observer:
            outcome = run_compile_rounds(ops, seconds, tracer)
        counters = dict(observer.counters)
        tracer.uninstall()
    else:
        outcome = run_compile_rounds(ops, seconds, None)
    if trace:
        metrics = per_layer(tracer, counters, outcome["rounds"], "op")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": {"value": outcome["ops_per_s"], "unit": "1/s"},
            "compile_ms_gmean": {"value": outcome["compile_ms_gmean"], "unit": "ms"},
            "cycles_total": {"value": outcome["cycles_total"], "unit": "cycles"},
            "code_ops_total": {"value": outcome["code_ops_total"], "unit": "ops"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    return {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
        "detail": {
            "rounds": outcome["rounds"],
            "round_rates": outcome["round_rates"],
            "failures": outcome["failures"],
            "changed_between_rounds": outcome["changed"],
            "problems": outcome["problems"][:20],
        },
    }


def replay_signatures(seed: int) -> List[str]:
    ops = alloc_large_ops(seed, None)[:len(REPLAY_TRACES)]
    return [checks.signature_digest(op.execute().program) for op in ops]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("alloc-large", "program-suite", "serve-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--replay", action="store_true")
    parser.add_argument("--replay-signatures", default=None,
                        help="JSON list from a --replay run")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a server started by the
    # workload is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if args.replay:
        print(json.dumps(replay_signatures(args.seed)))
        return 0
    if args.workload == "serve-mix":
        from serve_mix import ServeMix

        result = ServeMix(args.seed).run(args.seconds, bool(args.trace))
    else:
        if args.workload == "alloc-large":
            signatures = (json.loads(args.replay_signatures)
                          if args.replay_signatures else None)
            ops = alloc_large_ops(args.seed, signatures)
        else:
            ops = program_suite_ops(args.seed)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        result = compile_workload(ops, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
