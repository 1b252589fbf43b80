"""The input sets of the three workloads.

Every function here is deterministic in its arguments: the same
workload seed gives the same inputs in every process.  What depends on
the seed and what does not is chosen per workload (README.md, "Input
sets"); in short, inputs that a known fault fails on never depend on the
seed, so those faults fail the same operations in every run.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Dict, List, Sequence, Tuple

from repro.ir.block import BasicBlock
from repro.ir.instructions import Addr, Instruction
from repro.ir.opcodes import Opcode
from repro.ir.program import Program
from repro.workloads import KERNELS, kernel, random_layered_trace
from repro.workloads import random_structured_program

Memory = Dict[Tuple[str, int], int]

# ----------------------------------------------------------------------
# alloc-large
# ----------------------------------------------------------------------
#: (preset, ops) of the register-tight traces.  The set is fixed: ursa's
#: output and compile time change with any renaming or reordering of a
#: trace (up to 1.7x in cycles on one DAG), so a seed-drawn set spreads
#: wider between seeds than any useful bound.  The seed draws the memory
#: the outputs are checked on.
ALLOC_TRACES: Tuple[Tuple[str, int], ...] = (
    ("research", 96),
    ("narrow", 104),
    ("dsp", 112),
    ("trace7", 120),
    ("cydra", 128),
)

#: Medium traces compiled again under a second pinned hash seed
#: (determinism replays).  Their signatures must match across hash seeds.
REPLAY_TRACES: Tuple[Tuple[str, int], ...] = (
    ("research", 48),
    ("research", 56),
    ("research", 64),
    ("narrow", 48),
    ("narrow", 56),
    ("narrow", 64),
)


def layered_trace(ops: int) -> List[Instruction]:
    """The register-tight layered trace of ``ops`` operations."""
    return random_layered_trace(ops, width=ops // 6, seed=ops)


def trace_memory(instructions: Sequence[Instruction], rng: random.Random) -> Memory:
    """Seeded contents for every cell the instructions load.  Values are
    never 0, so the divisions of the ``figure2`` kernel never divide by
    zero."""
    memory: Memory = {}
    for inst in instructions:
        if inst.op is Opcode.LOAD and inst.addr is not None:
            cell = (inst.addr.base, inst.addr.offset)
            if cell not in memory:
                memory[cell] = rng.randrange(1, 100) * rng.choice((-1, 1))
    return memory


# ----------------------------------------------------------------------
# program-suite
# ----------------------------------------------------------------------
PROGRAM_PRESETS = ("research", "narrow", "trace7", "cydra")

#: Programs that never depend on the seed.  Every method runs on them,
#: including the combinations with known wrong-code faults, which fail
#: here on the same programs in every run (README.md, "Faults").
FIXED_PROGRAM_SEEDS = tuple(range(24))
FIXED_PROGRAM_SHAPE = {"max_depth": 2, "body_size": 6}

#: Seed-drawn programs per run, same shape as the fixed ones.
SEEDED_PROGRAMS = 16

#: method -> presets, per input group.  Combinations whose outputs fail
#: on a few percent of random programs run on the fixed programs and
#: the kernels only, where they fail the same programs in every run:
#: ``prepass`` on any preset and ``portfolio`` when ``prepass`` wins its
#: race (wrong code), ``spill-everywhere`` on ``trace7``/``cydra`` (wrong
#: code), and every method on ``trace7``/``cydra``, whose side-exit
#: traces schedule below ``analyze.length_lower_bound`` (README.md,
#: "Faults").  The seed-drawn programs run the cheap combinations whose
#: cost and code size vary least between programs, so that a run's
#: figures depend little on its seed.  ``ursa`` on ``narrow`` (four
#: registers) is left to alloc-large: on programs it spends most of the
#: suite's time in allocation, which this workload is meant to bypass.
SEEDED_COMBOS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ursa", ("research",)),
    ("goodman-hsu", ("research", "narrow")),
)
FIXED_COMBOS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ursa", ("trace7", "cydra")),
    ("goodman-hsu", ("trace7", "cydra")),
    ("prepass", PROGRAM_PRESETS),
    ("portfolio", ("research", "cydra")),
    ("spill-everywhere", PROGRAM_PRESETS),
)
KERNEL_COMBOS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("ursa", ("research", "trace7", "cydra")),
    ("goodman-hsu", PROGRAM_PRESETS),
    ("prepass", PROGRAM_PRESETS),
    ("spill-everywhere", PROGRAM_PRESETS),
    ("portfolio", ("research", "cydra")),
)


def one_block_program(instructions: Sequence[Instruction]) -> Program:
    """A straight-line kernel as a one-block program ending in ``halt``."""
    block = BasicBlock("L0")
    for inst in instructions:
        block.append(inst)
    block.append(Instruction(Opcode.HALT))
    program = Program()
    program.add_block(block)
    return program


def program_inputs(seed: int) -> List[Tuple[str, str, Program, Memory, Tuple]]:
    """``(group, name, program, memory, combos)`` for every program."""
    rng = random.Random(f"program-suite:{seed}")
    inputs = []
    for s in FIXED_PROGRAM_SEEDS:
        program = random_structured_program(s, **FIXED_PROGRAM_SHAPE)
        inputs.append(("fixed", f"rp{s}", program, {}, FIXED_COMBOS))
    for name in sorted(KERNELS):
        instructions = kernel(name)
        memory = trace_memory(instructions, rng)
        inputs.append((
            "kernel", name, one_block_program(instructions), memory,
            KERNEL_COMBOS,
        ))
    for _ in range(SEEDED_PROGRAMS):
        s = rng.randrange(10**6, 10**9)
        program = random_structured_program(s, **FIXED_PROGRAM_SHAPE)
        inputs.append(("seeded", f"rp{s}", program, {}, SEEDED_COMBOS))
    return inputs


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
#: Trace requests.  No record of the service's traffic exists, so the
#: requests are the repository's real traces: the kernels of
#: ``repro.workloads.kernels`` and ``examples/traces`` (16 traces of 11
#: to 40 ops), each sent as copies whose memory bases carry a seed-drawn
#: suffix.  A copy has its own cache key but the same work: ``ursa``
#: compiles it to the same schedule in about the same time, so the
#: figures do not move with the seed (seed-drawn traces of these sizes
#: differ several-fold in compile time).  The working set (four copies of each
#: trace) is sent in pass 0 (cache misses) and again in every later pass
#: (hits); fresh copies, a few per later pass, spread misses and cache
#: writes over the whole run.  With the programs' traces the working set
#: fits the server's 256-entry hot memo.  README.md ("serve-mix") gives
#: the reason for each ratio.
SERVE_WORKING_SET = 64
SERVE_FRESH_PER_PASS = 4
SERVE_MAX_PASSES = 64
SERVE_PRESET = "research"
EXAMPLE_TRACES = "examples/traces"
#: Program requests: the fixed programs of program-suite, so that their
#: latency (mostly the verifying run) does not move with the seed.
SERVE_PROGRAM_METHODS = ("ursa", "goodman-hsu")


def render_trace(instructions: Sequence[Instruction]) -> str:
    """ursa-lang text of a straight-line trace."""
    return "\n".join(str(inst) for inst in instructions)


def real_traces() -> List[List[Instruction]]:
    """The kernels and the example traces (read from the checkout root),
    in a fixed order; an example trace that repeats a kernel
    (``figure2``) is left out, since it would be a cache hit."""
    from repro.ir.parser import parse_program

    traces = [kernel(name) for name in sorted(KERNELS)]
    for name in sorted(os.listdir(EXAMPLE_TRACES)):
        if name.endswith(".ursa"):
            with open(os.path.join(EXAMPLE_TRACES, name)) as handle:
                trace = parse_program(handle.read()).blocks[0].instructions
            if render_trace(trace) not in map(render_trace, traces):
                traces.append(list(trace))
    return traces


def rename_memory(instructions: Sequence[Instruction], suffix: str) -> List[Instruction]:
    """The trace with ``suffix`` appended to every memory base."""
    return [
        dataclasses.replace(inst, addr=Addr(f"{inst.addr.base}{suffix}",
                                            inst.addr.offset))
        if inst.addr is not None else inst
        for inst in instructions
    ]


def serve_inputs(seed: int) -> Tuple[List[str], List[int], List[Tuple[str, str]]]:
    """Trace sources (the working set first, then the fresh ones), the
    real trace each is a copy of, and ``(program source, method)``
    pairs."""
    from repro.machine.presets import preset
    from repro.serve.cache import trace_key

    rng = random.Random(f"serve-mix:{seed}")
    machine = preset(SERVE_PRESET)
    real = real_traces()
    keys = set()
    copies = []
    for k in range(SERVE_WORKING_SET + SERVE_FRESH_PER_PASS * SERVE_MAX_PASSES):
        origin = k % len(real)
        # Every copy has its own cache key, so a first request is a miss.
        while True:
            trace = rename_memory(real[origin], f"_{rng.randrange(10**6)}")
            key = trace_key(trace, machine, "ursa")
            if key not in keys:
                break
        keys.add(key)
        copies.append((render_trace(trace), origin))
    working = copies[:SERVE_WORKING_SET]
    rng.shuffle(working)
    traces, origins = zip(*(working + copies[SERVE_WORKING_SET:]))
    programs = [
        (
            str(random_structured_program(s, **FIXED_PROGRAM_SHAPE)),
            SERVE_PROGRAM_METHODS[s % len(SERVE_PROGRAM_METHODS)],
        )
        for s in FIXED_PROGRAM_SEEDS
    ]
    return list(traces), list(origins), programs
