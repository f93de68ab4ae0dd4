"""The flagship property test: for *randomly synthesized programs* and
random machine configurations, every release scheme must

1. produce exactly the functional emulator's architectural state
   (catching any use-after-free through value corruption),
2. conserve the free lists (no leak, no double free — checked live by
   the FreeList and at the end against the SRT),
3. pass ATR's internal flush-walk oracle cross-check (enabled by
   default in the schemes).
"""

import dataclasses

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.frontend import final_state, run_program
from repro.pipeline import Core, fast_test_config
from repro.workloads import WorkloadProfile, synthesize

profiles = st.builds(
    WorkloadProfile,
    alu_weight=st.floats(min_value=0.5, max_value=10),
    mul_weight=st.floats(min_value=0, max_value=2),
    div_weight=st.floats(min_value=0, max_value=1),
    load_weight=st.floats(min_value=0, max_value=4),
    store_weight=st.floats(min_value=0, max_value=2),
    vec_weight=st.floats(min_value=0, max_value=3),
    block_length=st.floats(min_value=1.5, max_value=12),
    branch_prob=st.floats(min_value=0, max_value=1),
    taken_bias=st.floats(min_value=0.05, max_value=0.95),
    blocks=st.integers(min_value=3, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    profile=profiles,
    scheme=st.sampled_from(["baseline", "nonspec_er", "atr", "combined"]),
    rf_size=st.sampled_from([26, 30, 40, 64]),
    delay=st.sampled_from([0, 1, 2]),
    predictor=st.sampled_from(["tage", "always_taken", "always_not_taken"]),
)
def test_any_program_any_config_matches_golden(profile, scheme, rf_size, delay, predictor):
    program = synthesize(profile, iterations=3)
    limit = 2500
    golden = final_state(program, max_instructions=limit)
    trace = run_program(program, max_instructions=limit)

    config = dataclasses.replace(
        fast_test_config(rf_size=rf_size, scheme=scheme, predictor=predictor),
        redefine_delay=delay,
    )
    core = Core(config, trace)
    core.run()

    state = core.architectural_state()
    assert state.int_regs == golden.int_regs
    assert state.flags == golden.flags
    assert state.vec_regs == golden.vec_regs
    for addr, value in golden.memory.items():
        if value:
            assert state.memory.get(addr, 0) == value
    core.check_conservation()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    profile=profiles,
    rf_size=st.sampled_from([26, 34]),
)
def test_scheme_ipc_ordering(profile, rf_size):
    """Early release never hurts: atr/nonspec/combined IPC >= ~baseline.

    A small tolerance absorbs second-order scheduling noise (different
    rename timing shifts branch resolution by a few cycles).
    """
    program = synthesize(profile, iterations=3)
    trace = run_program(program, max_instructions=2000)

    def ipc(scheme):
        core = Core(fast_test_config(rf_size=rf_size, scheme=scheme), trace)
        return core.run().ipc

    base = ipc("baseline")
    assert ipc("atr") >= base * 0.97
    assert ipc("nonspec_er") >= base * 0.97
    assert ipc("combined") >= base * 0.97
