"""Central tolerance configuration and environment overrides."""

import pytest

from mereo import ENV_OVERRIDE, Tolerances, active_tolerances


class TestDefaults:
    def test_default_values(self):
        tols = Tolerances()
        assert tols.tol_herm == 1e-9
        assert tols.tol_recon == 1e-9
        assert tols.tol_rank == 1e-7
        assert tols.tol_compat == 1e-9
        assert tols.tol_support == 1e-9

    def test_no_env_gives_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_OVERRIDE, raising=False)
        assert active_tolerances() == Tolerances()


class TestEnvOverride:
    def test_partial_override(self, monkeypatch):
        monkeypatch.setenv(ENV_OVERRIDE, '{"tol_rank": 1e-5}')
        tols = active_tolerances()
        assert tols.tol_rank == 1e-5
        assert tols.tol_herm == 1e-9

    def test_invalid_json_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_OVERRIDE, "not json")
        with pytest.raises(ValueError):
            active_tolerances()

    def test_unknown_key_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_OVERRIDE, '{"tol_bogus": 1.0}')
        with pytest.raises(ValueError):
            active_tolerances()

    def test_non_object_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_OVERRIDE, "[1, 2]")
        with pytest.raises(ValueError):
            active_tolerances()

    @pytest.mark.parametrize("raw", ['{"tol_rank": "abc"}', '{"tol_rank": [1]}', '{"tol_rank": 0}'])
    def test_bad_values_rejected(self, monkeypatch, raw):
        monkeypatch.setenv(ENV_OVERRIDE, raw)
        with pytest.raises(ValueError, match="tol_rank"):
            active_tolerances()


class TestValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_rejects_non_finite_or_non_positive(self, value):
        for field in Tolerances().as_dict():
            with pytest.raises(ValueError, match=field):
                Tolerances(**{field: value})
