"""Shared fixtures: small programs, traces, and configured cores."""

import pytest

from repro.frontend import run_program
from repro.isa import assemble
from repro.rename.schemes import SCHEMES, AtrScheme


@pytest.fixture(scope="session")
def _session_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("repro-cache")


@pytest.fixture(autouse=True)
def _isolated_result_store(_session_cache_dir, monkeypatch):
    """Keep the harness's persistent store out of ~/.cache during tests.

    One session-scoped directory (not per-test) so overlapping experiment
    tests still share warm results, exactly as production does.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(_session_cache_dir))


LOOP_SRC = """
    movi r1, 30
    movi r2, 0
    movi r3, 1
loop:
    add r2, r2, r3
    sub r1, r1, r3
    cmp r1, r2
    bne loop
    halt
"""

MEMORY_SRC = """
    movi r1, 16
    movi r3, 1
    movi r5, 4096
loop:
    st r1, r5, 0
    ld r2, r5, 0
    add r5, r5, r2
    sub r1, r1, r3
    test r1, r1
    bne loop
    halt
"""

BRANCHY_SRC = """
    movi r1, 60
    movi r2, 12345
    movi r3, 1103515245
    movi r4, 12347
    movi r6, 0
    movi r8, 1
loop:
    mul r2, r2, r3
    add r2, r2, r4
    shr r5, r2, 16
    and r5, r5, r8
    test r5, r8
    bne odd
    add r6, r6, r8
    jmp next
odd:
    sub r6, r6, r8
next:
    sub r1, r1, r8
    test r1, r1
    bne loop
    halt
"""

ATOMIC_SRC = """
    movi r1, 25
    movi r3, 1
    movi r5, 4096
loop:
    ld r2, r5, 0
    add r4, r2, r3
    xor r6, r4, r3
    add r6, r6, r4
    shl r7, r6, 2
    xor r7, r7, r6
    add r6, r7, r4
    add r5, r5, r3
    sub r1, r1, r3
    test r1, r1
    bne loop
    halt
"""

CALL_SRC = """
    movi r1, 10
    movi r3, 1
    movi r6, 0
loop:
    call bump
    sub r1, r1, r3
    test r1, r1
    bne loop
    halt
bump:
    add r6, r6, r3
    ret
"""


@pytest.fixture
def loop_program():
    return assemble(LOOP_SRC, name="loop")


@pytest.fixture
def loop_trace(loop_program):
    return run_program(loop_program)


@pytest.fixture
def memory_program():
    return assemble(MEMORY_SRC, name="memory")


@pytest.fixture
def branchy_program():
    return assemble(BRANCHY_SRC, name="branchy")


@pytest.fixture
def atomic_program():
    return assemble(ATOMIC_SRC, name="atomic")


@pytest.fixture
def call_program():
    return assemble(CALL_SRC, name="call")


ALL_SOURCES = {
    "loop": LOOP_SRC,
    "memory": MEMORY_SRC,
    "branchy": BRANCHY_SRC,
    "atomic": ATOMIC_SRC,
    "call": CALL_SRC,
}


class BuggyAtr(AtrScheme):
    """ATR with the safety guards removed: claims and frees the previous
    mapping at rename, ignoring outstanding consumers and value readiness."""

    name = "buggy_atr"

    def post_rename(self, entry, cycle):
        for record in entry.dests:
            ptag = record.release_prev
            if ptag is None:
                continue
            file = self.unit.files[record.file]
            if file.prt.is_no_early_release(ptag):
                continue
            record.release_prev = None
            self.stats.atr_claims += 1
            file.prt.mark_redefined(ptag, cycle)
            self._atr_release(record.file, ptag)  # guards skipped


@pytest.fixture
def buggy_atr_scheme():
    """Register :class:`BuggyAtr` as scheme ``buggy_atr`` (flush-walk
    debug checks off) for the test's duration, so configs, tiered runs
    and sweep cells can name it."""
    SCHEMES.register(BuggyAtr.name,
                     lambda redefine_delay=0: BuggyAtr(debug_checks=False))
    yield BuggyAtr.name
    SCHEMES.unregister(BuggyAtr.name)
