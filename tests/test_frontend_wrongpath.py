"""Wrong-path instruction supply."""

from repro.frontend import WrongPathSupplier, run_program
from repro.isa import assemble
from repro.pipeline import Core, Probe, fast_test_config

from tests.conftest import BRANCHY_SRC


class _FetchLog(Probe):
    def __init__(self):
        self.entries = []

    def on_fetch(self, entry, cycle):
        self.entries.append(entry)


def _supplier():
    prog = assemble("""
        movi r1, 1
        ld r2, r1, 0
        st r2, r1, 8
        cmp r1, r2
    top:
        bne top
        jmp top
        halt
    """)
    return WrongPathSupplier(prog), prog


def test_fetch_decodes_static_instruction():
    supplier, prog = _supplier()
    instr, next_pc, mem_addr = supplier.fetch(0, seq=100)
    assert instr is prog.at(0)
    assert next_pc == 1
    assert mem_addr is None


def test_memory_gets_pseudo_address():
    supplier, _ = _supplier()
    _, _, load_addr = supplier.fetch(1, seq=5)
    _, _, store_addr = supplier.fetch(2, seq=6)
    assert load_addr is not None and load_addr % 8 == 0
    assert store_addr is not None


def test_pseudo_addresses_deterministic():
    s1, _ = _supplier()
    s2, _ = _supplier()
    assert s1.fetch(1, seq=5)[2] == s2.fetch(1, seq=5)[2]
    assert s1.fetch(1, seq=6)[2] != s1.fetch(1, seq=5)[2]


def test_non_memory_has_no_address():
    supplier, _ = _supplier()
    assert supplier.fetch(0, seq=1)[2] is None


def test_direct_jump_follows_target():
    supplier, prog = _supplier()
    _, next_pc, _ = supplier.fetch(5, seq=1)  # jmp top
    assert next_pc == prog.labels["top"]


def test_conditional_reported_not_taken():
    """The supplier gives a conditional branch its fall-through; the
    fetch stage follows the prediction, never the supplier."""
    supplier, _ = _supplier()
    _, next_pc, _ = supplier.fetch(4, seq=1)  # bne
    assert next_pc == 5


def test_fetched_wrong_path_entry_is_marked():
    """Fetch turns what the supplier decodes into a wrong-path entry: its
    own seq, no trace position, and the wrong-path mark."""
    trace = run_program(assemble(BRANCHY_SRC))
    core = Core(fast_test_config(predictor="always_taken"), trace)
    probe = core.add_probe(_FetchLog())
    core.run()
    wrong = [entry for entry in probe.entries if entry.wrong_path]
    assert wrong, "always-taken prediction must fetch down wrong paths"
    assert all(entry.trace_seq == -1 for entry in wrong)
    assert all(entry.trace_seq >= 0 for entry in probe.entries
               if not entry.wrong_path)
    seqs = [entry.seq for entry in probe.entries]
    assert seqs == sorted(set(seqs)), "every fetched entry has its own seq"
    assert core.state.wp_supplier.supplied >= len(wrong)


def test_out_of_image_returns_none():
    supplier, _ = _supplier()
    assert supplier.fetch(999, seq=1) is None


def test_halt_returns_none():
    supplier, prog = _supplier()
    assert supplier.fetch(len(prog) - 1, seq=1) is None


def test_supplied_counter():
    supplier, _ = _supplier()
    supplier.fetch(0, seq=1)
    supplier.fetch(1, seq=2)
    assert supplier.supplied == 2
