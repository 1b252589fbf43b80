"""The benchmark's checks reject corrupted outputs.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

import copy
import dataclasses
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from repro.ir.opcodes import Opcode  # noqa: E402
from repro.machine.presets import preset  # noqa: E402
from repro.pipeline import compile_trace  # noqa: E402
from repro.workloads import kernel, random_structured_program  # noqa: E402


def _compiled_kernel():
    machine = preset("research")
    instructions = kernel("dot-product")
    memory = {cell: 3 + i for i, cell in enumerate(sorted(
        (inst.addr.base, inst.addr.offset)
        for inst in instructions if inst.op is Opcode.LOAD
    ))}
    result = compile_trace(instructions, machine, method="ursa", memory=memory)
    return result, instructions, machine, memory


def test_correct_trace_passes_every_check():
    result, instructions, machine, memory = _compiled_kernel()
    assert checks.check_trace(result, instructions, machine, memory) == []
    assert checks.rule_pack_problems(result) == []


def test_changed_stored_value_is_rejected():
    result, instructions, machine, memory = _compiled_kernel()
    bad = copy.deepcopy(result)
    for word in bad.program.words:
        for key, op in word.slots.items():
            if op.op is Opcode.MUL:
                word.slots[key] = dataclasses.replace(op, op=Opcode.ADD)
                break
    problems = checks.check_trace(bad, instructions, machine, memory)
    assert any("memory differs" in p for p in problems)


def test_cycles_below_the_length_bound_are_rejected():
    result, instructions, machine, memory = _compiled_kernel()
    bad = copy.deepcopy(result)
    bad.schedule.length = 1
    problems = checks.check_trace(bad, instructions, machine, memory)
    assert any("below the length lower bound" in p for p in problems)


def test_rule_pack_violation_is_rejected():
    result, instructions, machine, memory = _compiled_kernel()
    bad = copy.deepcopy(result)
    last = max(bad.schedule.ops, key=lambda op: op.cycle)
    last.cycle = 0  # the final store before the value it stores exists
    assert checks.rule_pack_problems(bad)


def test_program_memory_mismatch_is_rejected():
    op = worker.ProgramOp("rp3", "research", "ursa",
                          random_structured_program(3, max_depth=2, body_size=6),
                          {})
    result = op.execute()
    assert op.failure(result) is None
    compiled, run, _ = result
    observed = dict(run.memory)
    cell = next(c for c in observed if not c[0].startswith("%"))
    observed[cell] += 1
    assert checks.check_program(compiled, observed, {})


def test_replay_signature_mismatch_fails_the_operation():
    name, n = inputs.REPLAY_TRACES[0]
    instructions = inputs.layered_trace(n)
    memory = inputs.trace_memory(instructions, random.Random(0))
    op = worker.TraceOp("replay", name, instructions, memory, "0" * 16)
    reason = op.failure(op.execute())
    assert reason is not None and "second hash seed" in reason


def _serve_mix_with_reply(traces: int, compiled: int):
    """A serve-mix limited to ``traces`` traces, and a reply that is the
    in-process compile of trace ``compiled``."""
    import serve_mix
    from repro.ir.parser import parse_program

    mix = serve_mix.ServeMix(seed=5)
    mix.traces, mix.programs = mix.traces[:traces], []
    source = mix.traces[compiled]
    instructions = list(parse_program(source).blocks[0].instructions)
    result = compile_trace(instructions, preset(inputs.SERVE_PRESET),
                           method="ursa", verify=False)
    return mix, {"program": str(result.program)}


def _log(miss, hit=()):
    return {"miss": [(0, 0.1, reply, 0) for reply in miss],
            "hit": [(0, 0.1, reply, 1) for reply in hit],
            "analyze": [], "program": []}


def test_correct_serve_reply_passes():
    mix, reply = _serve_mix_with_reply(1, 0)
    assert mix.check(_log([reply], [dict(reply)])) == ([], [])


def test_serve_hit_that_differs_from_its_miss_is_rejected():
    mix, reply = _serve_mix_with_reply(1, 0)
    changed = dict(reply, program=reply["program"].replace("r1", "r2", 1))
    assert changed != reply
    problems, _ = mix.check(_log([reply], [changed]))
    assert any("hit differs from its miss" in p for p in problems)


def test_serve_miss_with_a_wrong_register_is_rejected():
    mix, reply = _serve_mix_with_reply(1, 0)
    changed = dict(reply, program=reply["program"].replace("r1", "r2", 1))
    problems, differing = mix.check(_log([changed], [changed]))
    assert differing == ["trace 0"]
    assert any("trace 0 reply" in p for p in problems)


def test_serve_reply_for_another_trace_is_rejected():
    mix, reply = _serve_mix_with_reply(2, 1)
    problems, differing = mix.check(_log([reply]))
    assert differing == ["trace 0"]
    assert any("trace 0 reply" in p for p in problems)


def test_vliw_text_reads_back_to_the_same_program():
    result, _, machine, _ = _compiled_kernel()
    text = str(result.program)
    assert str(checks.parse_vliw(text, machine)) == text
