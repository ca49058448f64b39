"""Single-pass golden capture ≡ the restore-and-interpret replay.

Production keeps the TwinPlan from the address stream the golden run
recorded while it executed (translated, full-trace).  The oracle here is the
path that used to run in production: restore the golden checkpoint,
re-execute the activation *interpreted* under the full tracer, and walk the
stream address by address (:mod:`tests.faults.stream_walk`).  Over random
activations of every benchmark profile, PV and HVM:

* the single-pass plan classifies every register at every index the way
  the walk of the replayed stream does;
* recording is an observation: capture with it on and off yields equal
  results, follow-ups, outputs and heap images.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import capture_golden
from repro.faults.injector import trace_plan
from repro.faults.propagation import materialize_followups
from repro.hypervisor import XenHypervisor
from repro.machine import translator
from repro.machine.lockstep import classify_twin
from repro.machine.registers import ALL_REGISTERS
from repro.metrics import CampaignCounters, counted
from repro.workloads import BENCHMARK_NAMES, VirtMode, WorkloadGenerator, get_profile
from tests.faults.stream_walk import walk_fates

_HV = XenHypervisor(seed=17)


@pytest.fixture(scope="module", autouse=True)
def compile_on_first_dispatch():
    """Every block compiles at once, so recording runs on the translated
    path from the first example on."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(translator, "COMPILE_THRESHOLD", 1)
        yield


def replay_fates(hv, activation, golden) -> dict:
    """The retired production path: replay the golden activation from its
    checkpoint, interpreted, with the full tracer recording, and walk the
    replayed stream."""
    core = hv.cpu
    hv.restore(golden.checkpoint)
    core.clear_injection()
    core.translate, core.tracer.light = False, False
    try:
        result = hv.execute(activation)
        addresses = list(core.tracer.addresses)
    finally:
        core.translate, core.tracer.light = True, True
    assert result == golden.result, "the replay must line up with the capture"
    return walk_fates(hv.program, addresses)


@st.composite
def groups(draw):
    """A warmup burst, the injected activation and two follow-ups."""
    generator = WorkloadGenerator(
        get_profile(draw(st.sampled_from(BENCHMARK_NAMES))),
        draw(st.sampled_from(list(VirtMode))),
        seed=draw(st.integers(0, 10_000)),
        n_domains=_HV.n_domains,
    )
    stream = generator.activations(draw(st.integers(0, 4)) + 3)
    return stream[:-3], stream[-3], tuple(stream[-2:])


@settings(max_examples=60, deadline=None)
@given(group=groups())
def test_single_pass_plan_matches_replay(group):
    warmup, activation, followups = group
    hv = _HV
    hv.reset()
    for act in warmup:
        hv.execute(act)
    start = hv.checkpoint()

    recorded, counts = counted(capture_golden, hv, activation)
    assert CampaignCounters.folded(counts).translated.value > 0
    materialize_followups(hv, recorded, followups)
    hv.restore(start)
    silent = capture_golden(hv, activation, record=False)
    materialize_followups(hv, silent, followups)
    assert silent.trace == ()
    assert hv.cpu.tracer.light

    # Recording is an observation.
    assert recorded.result == silent.result
    assert recorded.after == silent.after
    assert recorded.followups == silent.followups
    assert recorded.outputs == silent.outputs
    assert recorded.heap_image == silent.heap_image

    plan = trace_plan(hv.program, recorded)
    fates = replay_fates(hv, activation, recorded)
    assert plan.instructions == recorded.result.instructions
    for register in ALL_REGISTERS:
        got = [classify_twin(plan, register, i) for i in range(plan.instructions + 3)]
        assert got == fates[register], register
