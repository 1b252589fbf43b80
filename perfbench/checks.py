"""Correctness checks on compiled outputs, computed apart from the compiler.

Each check returns a list of problems (empty when the output is
correct).  References come from the reference interpreter run by the
benchmark itself, from the ``repro.verify`` rule pack, and from the
``repro.analyze`` length lower bound of the input DAG, never from
output saved by an earlier run.
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Sequence, Tuple

from repro.analyze.bounds import length_lower_bound
from repro.ir.instructions import Addr, Instruction
from repro.ir.interp import Interpreter
from repro.ir.opcodes import Opcode
from repro.machine.model import MachineModel
from repro.machine.simulator import SimulationError, VLIWSimulator
from repro.machine.vliw import MachineOp, RegRef, VLIWProgram, VLIWWord
from repro.pipeline import build_dag
from repro.serve.cache import program_signature
from repro.verify import verify_compilation

Memory = Dict[Tuple[str, int], int]


def user_memory(memory: Memory) -> Memory:
    """Memory without the compiler's own cells (spill slots, ``%var``)."""
    return {cell: v for cell, v in memory.items() if not cell[0].startswith("%")}


def memory_problems(expected: Memory, observed: Memory) -> List[str]:
    expected, observed = user_memory(expected), user_memory(observed)
    if expected == observed:
        return []
    wrong = sorted(
        cell for cell in set(expected) | set(observed)
        if expected.get(cell) != observed.get(cell)
    )
    return [
        f"memory differs from the reference interpreter at {len(wrong)} "
        f"cell(s), first {wrong[0]}: expected {expected.get(wrong[0])}, "
        f"got {observed.get(wrong[0])}"
    ]


def bound_problems(cycles: int, bound: int, what: str) -> List[str]:
    if cycles >= bound:
        return []
    return [f"{what}: {cycles} cycles is below the length lower bound {bound}"]


def signature_digest(program: VLIWProgram) -> str:
    """The 16-hex-digit digest ``repro serve`` reports per trace."""
    return hashlib.sha256(program_signature(program).encode()).hexdigest()[:16]


_SLOT = re.compile(r"(\S+?)(\d+): (.+)")


def parse_vliw(text: str, machine: MachineModel) -> VLIWProgram:
    """Read a program back from the text ``str(VLIWProgram)`` renders,
    as ``repro serve`` returns it.  Raises ``ValueError`` on text that
    is not such a rendering."""
    classes = {
        ("r" if cls in ("gpr", "int") else cls[0]): cls
        for cls in machine.registers
    }

    def operand(token: str):
        if token.lstrip("-").isdigit():
            return int(token)
        if token[:1] in classes and token[1:].isdigit():
            return RegRef(int(token[1:]), classes[token[:1]])
        raise ValueError(f"bad operand {token!r}")

    program = VLIWProgram(machine)
    for line in text.splitlines()[1:]:
        word = VLIWWord()
        body = line.split(": ", 1)[1]
        for slot in ([] if body == "(nop)" else body.split(" || ")):
            match = _SLOT.fullmatch(slot)
            if match is None:
                raise ValueError(f"bad slot {slot!r}")
            fu, index, rendered = match.groups()
            tokens = rendered.split()
            op = Opcode(tokens.pop(0))
            dest = target = addr = None
            if len(tokens) > 1 and tokens[1] == "<-":
                dest = operand(tokens[0])
                tokens = tokens[2:]
            if op in (Opcode.BR, Opcode.CBR):
                target = tokens.pop()
            if tokens and tokens[-1].startswith("["):
                cell = tokens.pop()[1:-1]
                base, plus, offset = cell.rpartition("+")
                addr = Addr(base, int(offset)) if plus else Addr(cell)
            word.place(fu, int(index), MachineOp(
                op, dest, tuple(operand(t) for t in tokens), addr, target
            ))
        program.words.append(word)
    if str(program) != text:
        raise ValueError("text does not read back to the same program")
    return program


def reply_problems(
    text: str, instructions: Sequence[Instruction], machine: MachineModel,
    memory: Memory,
) -> List[str]:
    """Check a served trace compile, given as program text, by what it
    does: read it back, simulate it on ``memory`` against the reference
    interpreter, and hold its schedule length (the cycle by which every
    op has completed) to the length bound."""
    try:
        program = parse_vliw(text, machine)
        run = VLIWSimulator(machine, dict(memory)).run(program)
    except (ValueError, KeyError, SimulationError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    expected = Interpreter(dict(memory)).run_trace(list(instructions)).memory
    length = max((
        cycle + machine.fu_class(fu).latency
        for cycle, word in enumerate(program.words) for fu, _ in word.slots
    ), default=0)
    bound = length_lower_bound(build_dag(list(instructions)), machine)
    return (memory_problems(expected, run.memory)
            + bound_problems(length, bound, "reply"))


def check_trace(
    result, instructions: Sequence[Instruction], machine: MachineModel, memory: Memory
) -> List[str]:
    """Check one ``compile_trace`` result of a trace with no live-ins:
    simulated memory against the interpreter's, and the length bound."""
    expected = Interpreter(dict(memory)).run_trace(list(instructions)).memory
    observed = VLIWSimulator(machine, dict(memory)).run(result.program).memory
    problems = memory_problems(expected, observed)
    bound = length_lower_bound(build_dag(list(instructions)), machine)
    return problems + bound_problems(result.schedule.length, bound, "trace")


def rule_pack_problems(result) -> List[str]:
    """The ``repro.verify`` rule pack over one ``compile_trace`` result."""
    report = verify_compilation(result)
    return [] if report.ok else [f"rule pack: {report.errors()[0]}"]


def check_program(compiled, observed: Memory, memory: Memory) -> List[str]:
    """Check a ``compile_program`` result and the memory its run left."""
    expected = Interpreter(dict(memory)).run_program(compiled.source).memory
    problems = memory_problems(expected, observed)
    for head, trace in sorted(compiled.traces.items()):
        dag = build_dag(trace.prepared.instructions)
        bound = length_lower_bound(dag, compiled.machine)
        problems += bound_problems(trace.cycles_estimate, bound, f"trace {head}")
    return problems
