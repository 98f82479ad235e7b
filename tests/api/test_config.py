"""RunConfig: alias normalisation, validation, override semantics."""

import pytest

from repro.api import RunConfig
from repro.api.config import (
    BACKEND_ALIASES,
    ENGINE_ALIASES,
    normalize_backend,
    normalize_engine,
)

pytestmark = pytest.mark.api


class TestBackendAliases:
    @pytest.mark.parametrize("alias,canonical", sorted(BACKEND_ALIASES.items()))
    def test_alias_resolves(self, alias, canonical):
        assert normalize_backend(alias) == canonical

    def test_canonical_names_pass_through(self):
        from repro.api.backends import backend_names

        for name in backend_names():
            assert normalize_backend(name) == name

    def test_case_and_whitespace(self):
        assert normalize_backend("  Sim ") == "distributed"
        assert normalize_backend("SERIAL") == "serial"

    @pytest.mark.parametrize("name", ["elastic", "procs", "processes",
                                      "blocked", "merged",
                                      "baseline:blocked",
                                      "baseline:merged"])
    def test_removed_backends_are_unknown(self, name):
        """4.0.0 unregistered these; they fail like any unknown name."""
        from repro.api.backends import get_backend

        with pytest.raises(ValueError, match="unknown backend"):
            get_backend(name)

    def test_every_alias_targets_a_registered_backend(self):
        from repro.api.backends import backend_names

        registered = set(backend_names())
        assert set(BACKEND_ALIASES.values()) <= registered


class TestEngineAliases:
    @pytest.mark.parametrize("alias,canonical", sorted(ENGINE_ALIASES.items()))
    def test_alias_resolves(self, alias, canonical):
        assert normalize_engine(alias) == canonical

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            normalize_engine("jit")


class TestNormalized:
    def test_resolves_aliases_and_tuples(self):
        cfg = RunConfig(backend="sim", engine="wallclock",
                        shape=[40, 40], mutations=["swap-groups@1"],
                        uncut_dims=[0]).normalized()
        assert cfg.backend == "distributed"
        assert cfg.engine == "compiled"
        assert cfg.shape == (40, 40)
        assert cfg.mutations == ("swap-groups@1",)
        assert cfg.uncut_dims == (0,)

    @pytest.mark.parametrize("kwargs", [
        {"steps": -1},
        {"threads": 0},
        {"ranks": 0},
        {"b": 0},
    ])
    def test_range_validation(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs).normalized()

    def test_resilient_property(self):
        from repro.runtime import ResiliencePolicy

        assert not RunConfig().resilient
        assert RunConfig(resilience=ResiliencePolicy()).resilient


class TestOverrides:
    def test_known_fields(self):
        cfg = RunConfig().with_overrides({"backend": "threaded", "threads": 4})
        assert cfg.backend == "threaded"
        assert cfg.threads == 4

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown RunConfig field"):
            RunConfig().with_overrides({"num_threads": 4})

    def test_empty_overrides_is_identity(self):
        cfg = RunConfig()
        assert cfg.with_overrides({}) is cfg

    def test_original_unchanged(self):
        cfg = RunConfig()
        cfg.with_overrides({"steps": 99})
        assert cfg.steps == 32


class TestTileParams:
    def test_distinct_tilings_distinct_keys(self):
        """Everything that changes the built schedule must feed the
        plan-cache identity."""
        base = RunConfig(b=4)
        assert base.tile_params() != RunConfig(b=8).tile_params()
        assert base.tile_params() != RunConfig(
            b=4, core_widths=(4, 8)).tile_params()
        assert base.tile_params() != RunConfig(
            b=4, mutations=("drop-action@0",)).tile_params()
        assert base.tile_params() == RunConfig(b=4).tile_params()
