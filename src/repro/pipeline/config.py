"""Core configuration (paper Table 1: an Intel Golden-Cove-like machine).

``golden_cove_config()`` produces the paper's evaluation configuration;
``fast_test_config()`` is a small machine for quick unit tests.  The
physical register file size (the paper's primary independent variable,
Figures 1/10/11/15) is set via ``rf_size``.

Named presets live in the :data:`CORE_CONFIGS` registry (zero-arg
factories returning a validated config): the golden-cove default plus
small/large RF sweep points, addressable from the CLI (``repro run
--config``) and listed by ``repro list configs``; plugin presets join
through the discovery hook (:mod:`repro.registry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..memory import HierarchyConfig
from ..registry import Registry


@dataclass
class CoreConfig:
    """Every knob of the cycle-level core model."""

    # Widths (Table 1: 6-wide fetch/decode, 8-wide retirement)
    fetch_width: int = 6
    rename_width: int = 6
    retire_width: int = 8
    precommit_width: int = 16

    # Window sizes (Table 1)
    rob_size: int = 512
    rs_size: int = 160
    lq_size: int = 96
    sq_size: int = 64

    # Register files (Figure 1 sweeps 64..280; Table 1 core has 280)
    int_rf_size: int = 280
    vec_rf_size: int = 280
    counter_bits: int = 3

    # Functional units (Table 1: 5 ALU, 3 Load, 2 Store)
    alu_ports: int = 5
    load_ports: int = 3
    store_ports: int = 2

    # Latencies (cycles)
    lat_int_alu: int = 1
    lat_int_mul: int = 3
    lat_int_div: int = 18
    lat_vec_alu: int = 2
    lat_vec_mul: int = 4
    lat_vec_div: int = 24
    lat_branch: int = 1
    lat_store: int = 1
    lat_forward: int = 1

    # Frontend
    frontend_depth: int = 6
    fetch_targets_per_cycle: int = 2
    ft_block_bytes: int = 64
    predictor: str = "tage"  # tage | gshare | bimodal | always_taken | always_not_taken

    # Recovery
    redirect_penalty: int = 3
    checkpoints: int = 8
    checkpoint_recovery_cycles: int = 1
    recovery_walk_width: int = 8

    # Release scheme
    scheme: str = "baseline"
    redefine_delay: int = 0

    # Memory hierarchy
    memory: HierarchyConfig = field(default_factory=HierarchyConfig)

    # Online invariant sanitizer (repro.validate): per-event use-after-
    # release / conservation / ordering checks.  Off by default — when
    # off the core holds no checker and pays a single `is None` test per
    # hook site.  The only observer behind a config switch, because the
    # harness's sanitizer re-run reaches every window core of a tiered
    # cell through the config; other observers attach with add_probe.
    check_invariants: bool = False

    @property
    def freelist_reserve(self) -> int:
        """Free-list stall watermark: MAX_DEST x rename width (paper
        4.2.1).  The ISA has at most one destination per instruction."""
        return self.rename_width

    def with_rf_size(self, rf_size: int) -> "CoreConfig":
        """A copy with both register files sized to *rf_size*."""
        return replace(self, int_rf_size=rf_size, vec_rf_size=rf_size)

    def with_scheme(self, scheme: str, redefine_delay: Optional[int] = None) -> "CoreConfig":
        delay = self.redefine_delay if redefine_delay is None else redefine_delay
        return replace(self, scheme=scheme, redefine_delay=delay)

    def validate(self) -> None:
        from ..branch import PREDICTORS
        if self.int_rf_size < 17 + self.freelist_reserve + 1:
            raise ValueError(f"int_rf_size {self.int_rf_size} too small to make progress")
        if self.vec_rf_size < 16 + self.freelist_reserve + 1:
            raise ValueError(f"vec_rf_size {self.vec_rf_size} too small to make progress")
        if self.rob_size < self.rename_width:
            raise ValueError("rob smaller than rename width")
        if self.predictor not in PREDICTORS:
            raise ValueError(
                f"unknown predictor {self.predictor!r}; "
                f"valid: {', '.join(sorted(PREDICTORS))}"
            )


def golden_cove_config(
    rf_size: int = 280,
    scheme: str = "baseline",
    redefine_delay: int = 0,
) -> CoreConfig:
    """The paper's Table 1 machine with a given RF size and scheme."""
    config = CoreConfig(
        scheme=scheme,
        redefine_delay=redefine_delay,
    ).with_rf_size(rf_size)
    config.validate()
    return config


#: Named machine presets: name -> zero-arg factory returning a validated
#: CoreConfig.  ``golden_cove`` is the paper's Table 1 machine; the
#: ``rf*`` points are the Figure 1/10 sweep anchors (64 = scarce, 128 =
#: knee, 384 = post-saturation headroom); ``fast_test`` is the small
#: unit-test machine.
CORE_CONFIGS: Registry = Registry(
    "config", doc="named core-configuration presets")

CORE_CONFIGS.register("golden_cove", lambda: golden_cove_config())
CORE_CONFIGS.register("golden_cove_rf64", lambda: golden_cove_config(rf_size=64))
CORE_CONFIGS.register("golden_cove_rf128", lambda: golden_cove_config(rf_size=128))
CORE_CONFIGS.register("golden_cove_rf384", lambda: golden_cove_config(rf_size=384))


def core_config(name: str) -> CoreConfig:
    """Build the named preset from :data:`CORE_CONFIGS` (always a fresh,
    validated instance — presets are factories, never shared state)."""
    config = CORE_CONFIGS.get(name)()
    config.validate()
    return config


def fast_test_config(
    rf_size: int = 64,
    scheme: str = "baseline",
    redefine_delay: int = 0,
    predictor: str = "tage",
) -> CoreConfig:
    """A small, fast machine for unit tests (64-entry ROB, 2 ALUs)."""
    config = CoreConfig(
        fetch_width=4,
        rename_width=4,
        retire_width=4,
        precommit_width=8,
        rob_size=64,
        rs_size=32,
        lq_size=16,
        sq_size=16,
        alu_ports=2,
        load_ports=2,
        store_ports=1,
        frontend_depth=3,
        predictor=predictor,
        scheme=scheme,
        redefine_delay=redefine_delay,
    ).with_rf_size(rf_size)
    config.validate()
    return config


CORE_CONFIGS.register("fast_test", lambda: fast_test_config())
