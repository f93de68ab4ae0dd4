"""The registry layer: generic core, drift guards, plugin discovery.

Three concerns:

* **Core semantics** — ``Registry`` registration/decorator/alias/lazy
  behaviour and its error messages.
* **Drift guards** — every CLI ``choices=`` list, grid default, and
  ``CoreConfig.validate`` error message is *derived from* the
  corresponding registry, so registering a new entry can never silently
  miss a layer.
* **Plugin end-to-end** — an out-of-tree module registering a toy
  workload and a toy scheme through the ``REPRO_PLUGINS`` discovery hook
  runs through ``run_cell`` and appears in ``repro list``.
"""

import sys
import textwrap

import pytest

from repro.registry import Registry, RegistryError, load_plugins, \
    registries, reset_plugins


@pytest.fixture
def reg():
    registry = Registry("thing")
    yield registry
    Registry._instances.pop("thing", None)


class TestRegistryCore:
    def test_register_and_get(self, reg):
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert reg["a"] == 1
        assert "a" in reg
        assert len(reg) == 1

    def test_decorator_form_returns_object(self, reg):
        @reg.register("fn")
        def fn():
            return 42

        assert fn() == 42  # decorated object unchanged
        assert reg.get("fn") is fn

    def test_registration_order_preserved(self, reg):
        for name in ("zeta", "alpha", "mid"):
            reg.register(name, name)
        assert reg.names() == ("zeta", "alpha", "mid")
        assert list(reg) == ["zeta", "alpha", "mid"]
        assert sorted(reg) == ["alpha", "mid", "zeta"]

    def test_duplicate_rejected_replace_allowed(self, reg):
        reg.register("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            reg.register("a", 2)
        reg.register("a", 2, replace=True)
        assert reg.get("a") == 2

    def test_unknown_name_lists_choices(self, reg):
        reg.register("alpha", 1)
        reg.register("beta", 2)
        with pytest.raises(RegistryError) as exc:
            reg.get("gamma")
        assert "alpha" in str(exc.value) and "beta" in str(exc.value)
        # RegistryError is a KeyError so dict-era call sites still catch it
        assert isinstance(exc.value, KeyError)

    def test_alias_resolves(self, reg):
        reg.register("canonical", 7, aliases=("short", "alt"))
        assert reg.get("short") == 7
        assert reg.canonical("alt") == "canonical"
        assert "short" in reg
        # aliases are not canonical names
        assert reg.names() == ("canonical",)

    def test_alias_collision_rejected(self, reg):
        reg.register("a", 1)
        reg.register("b", 2)
        with pytest.raises(RegistryError, match="collides"):
            reg.alias("a", "b")

    def test_lazy_resolved_once(self, reg):
        calls = []

        def thunk():
            calls.append(1)
            return "built"

        reg.register_lazy("lazy", thunk)
        assert "lazy" in reg.names()  # listing does not build
        assert not calls
        assert reg.get("lazy") == "built"
        assert reg.get("lazy") == "built"
        assert len(calls) == 1

    def test_unregister_drops_entry_and_aliases(self, reg):
        reg.register("a", 1, aliases=("aa",))
        reg.unregister("a")
        assert "a" not in reg and "aa" not in reg


class TestRegistries:
    def test_all_standard_kinds_present(self):
        kinds = registries()
        for kind in ("workload", "scheme", "predictor", "config", "figure"):
            assert kind in kinds, f"missing standard registry {kind!r}"


class TestDriftGuards:
    """A registration can never silently miss a CLI/config layer."""

    def _parser_actions(self, command):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        return sub.choices[command]._actions

    def test_run_scheme_choices_track_registry(self):
        from repro.rename.schemes import SCHEMES

        actions = self._parser_actions("run")
        scheme = next(a for a in actions if a.dest == "scheme")
        assert tuple(scheme.choices) == SCHEMES.names()

    def test_run_config_choices_track_registry(self):
        from repro.pipeline.config import CORE_CONFIGS

        actions = self._parser_actions("run")
        config = next(a for a in actions if a.dest == "config")
        assert tuple(config.choices) == CORE_CONFIGS.names()

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_grid_scheme_defaults_track_registry(self, command):
        from repro.rename.schemes import SCHEMES

        actions = self._parser_actions(command)
        schemes = next(a for a in actions if a.dest == "schemes")
        assert schemes.default == ",".join(SCHEMES.names())

    def test_list_categories_cover_every_registry(self):
        from repro.cli import LIST_CATEGORIES

        actions = self._parser_actions("list")
        what = next(a for a in actions if a.dest == "what")
        assert tuple(what.choices) == LIST_CATEGORIES
        # every standard registry kind has a list category
        covered = {"workload": "workloads", "scheme": "schemes",
                   "predictor": "predictors", "config": "configs",
                   "figure": "figures"}
        for kind, category in covered.items():
            assert category in LIST_CATEGORIES, kind

    def test_config_validate_error_derives_from_predictors(self):
        from repro.branch import PREDICTORS
        from repro.pipeline.config import CoreConfig

        config = CoreConfig(predictor="martingale")
        with pytest.raises(ValueError) as exc:
            config.validate()
        for name in PREDICTORS.names():
            assert name in str(exc.value)

    def test_make_scheme_error_derives_from_registry(self):
        from repro.rename.schemes import SCHEMES, make_scheme

        with pytest.raises(ValueError) as exc:
            make_scheme("magic")
        for name in SCHEMES.names():
            assert name in str(exc.value)

    def test_scheme_names_constant_matches_registry(self):
        from repro.rename.schemes import SCHEME_NAMES, SCHEMES

        assert SCHEME_NAMES == SCHEMES.names() == (
            "baseline", "nonspec_er", "atr", "combined")

    def test_figure_registry_has_every_fig_module(self):
        import pkgutil
        import re

        import repro.experiments as experiments

        on_disk = {info.name
                   for info in pkgutil.iter_modules(experiments.__path__)
                   if re.fullmatch(r"(fig|sec)\d+", info.name)}
        assert on_disk == set(experiments.FIGURES.names())
        assert len(on_disk) == 10

    def test_figure_registry_resolves_modules_lazily(self):
        from repro.experiments import FIGURES

        module = FIGURES.get("fig06")
        assert callable(module.run)


PLUGIN_SOURCE = textwrap.dedent('''
    """A toy out-of-tree plugin: one workload, one scheme."""
    from repro.isa import ProgramBuilder, ireg
    from repro.rename.schemes import SCHEMES
    from repro.rename.schemes.baseline import BaselineScheme
    from repro.workloads.suite import WORKLOADS, Workload, WorkloadVariant


    def toy_kernel(iterations=8, seed=1):
        b = ProgramBuilder("999.toy_r")
        r = ireg
        b.movi(r(1), iterations)
        b.movi(r(2), seed)
        b.movi(r(4), 1)
        b.label("top")
        b.add(r(2), r(2), r(4))
        b.xor(r(3), r(2), r(1))
        b.sub(r(1), r(1), r(4))
        b.test(r(1), r(1))
        b.bne("top")
        b.halt()
        return b.build()


    WORKLOADS.register("999.toy_r", Workload(
        "999.toy_r", toy_kernel, "int",
        variants=(WorkloadVariant("ref2", params={"seed": 5}),)))


    class ToyScheme(BaselineScheme):
        name = "toy_baseline"


    @SCHEMES.register("toy_baseline")
    def _make_toy(redefine_delay=0, debug_checks=True):
        return ToyScheme()
''')


@pytest.fixture
def toy_plugin(tmp_path, monkeypatch):
    """An importable plugin module wired through REPRO_PLUGINS."""
    (tmp_path / "repro_toy_plugin.py").write_text(PLUGIN_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv("REPRO_PLUGINS", "repro_toy_plugin")
    reset_plugins()
    yield "repro_toy_plugin"
    from repro.rename.schemes import SCHEMES
    from repro.workloads.suite import WORKLOADS

    WORKLOADS.unregister("999.toy_r")
    SCHEMES.unregister("toy_baseline")
    sys.modules.pop("repro_toy_plugin", None)
    reset_plugins()


class TestPluginEndToEnd:
    def test_lookup_miss_triggers_discovery(self, toy_plugin):
        from repro.workloads import builder_for

        program = builder_for("999.toy_r")(4)
        assert program.name == "999.toy_r"

    def test_load_plugins_idempotent(self, toy_plugin):
        assert load_plugins() == ("repro_toy_plugin",)
        assert load_plugins() == ()

    def test_plugin_workload_and_scheme_run_cell(self, toy_plugin):
        from repro.experiments import clear_result_cache, run_cell

        try:
            result = run_cell("999.toy_r", 64, "toy_baseline",
                              instructions=400)
            assert result.stats.committed == 400
            assert result.scheme == "toy_baseline"
            # the plugin's variant is addressable too
            variant = run_cell("999.toy_r/ref2", 64, "baseline",
                               instructions=400)
            assert variant.benchmark == "999.toy_r/ref2"
        finally:
            clear_result_cache()  # the plugin is unregistered after the test

    def test_plugin_appears_in_repro_list(self, toy_plugin, capsys):
        from repro.cli import main

        assert main(["list", "all"]) == 0
        out = capsys.readouterr().out
        assert "999.toy_r" in out
        assert "999.toy_r/ref2" in out
        assert "toy_baseline" in out

    def test_plugin_scheme_in_cli_choices(self, toy_plugin):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "999.toy_r", "-s", "toy_baseline", "-n", "100"])
        assert args.scheme == "toy_baseline"

    def test_repro_register_hook_called(self, tmp_path, monkeypatch):
        (tmp_path / "repro_hook_plugin.py").write_text(textwrap.dedent('''
            SEEN = {}
            def repro_register(registries):
                SEEN.update(registries)
        '''))
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "repro_hook_plugin")
        reset_plugins()
        try:
            load_plugins()
            module = sys.modules["repro_hook_plugin"]
            assert "scheme" in module.SEEN and "workload" in module.SEEN
        finally:
            sys.modules.pop("repro_hook_plugin", None)
            reset_plugins()

    def test_broken_plugin_fails_loudly(self, tmp_path, monkeypatch):
        (tmp_path / "repro_broken_plugin.py").write_text("raise RuntimeError('boom')\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_PLUGINS", "repro_broken_plugin")
        reset_plugins()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                load_plugins()
        finally:
            sys.modules.pop("repro_broken_plugin", None)
            reset_plugins()
