"""Central tolerance configuration, which no library call reads from the environment."""

import dataclasses
import json
from dataclasses import fields

import numpy as np
import pytest

from mereo import (
    AmplitudeMatrix,
    Property,
    State,
    SystemDims,
    Tolerances,
    Verdict,
    certify_rank1,
    density_scan,
    extract_property,
    from_property,
    has_property,
    property_from_span,
)
from mereo.io import property_from_json_dict


class TestDefaults:
    def test_default_values(self):
        tols = Tolerances()
        assert tols.tol_herm == 1e-9
        assert tols.tol_recon == 1e-9
        assert tols.tol_rank == 1e-7
        assert tols.tol_compat == 1e-9
        assert tols.tol_support == 1e-9


class TestLibraryReadsNoEnvironment:
    """Library calls without ``tols`` use ``Tolerances()``, whatever the environment holds."""

    @pytest.mark.parametrize("raw", [
        "{bad",
        # loose enough to change every verdict below, were it read
        '{"tol_herm": 0.5, "tol_recon": 0.5, "tol_rank": 0.5, "tol_support": 0.9}',
    ])
    def test_calls_without_tols_use_the_defaults(self, monkeypatch, raw):
        # the variable the CLI of mereo 0.2 read its tolerances from
        monkeypatch.setenv("MEREO_TOL_OVERRIDE", raw)
        with pytest.raises(ValueError, match="idempotent"):
            Property(np.diag([1.0, 0.01]))
        with pytest.raises(ValueError, match="positive semidefinite"):
            State(np.diag([1.001, -0.001]))
        check = has_property(State(np.diag([0.9, 0.1])), Property(np.diag([1.0, 0.0])))
        assert check.verdict is Verdict.MEANINGLESS
        assert property_from_span([[1.0, 0.0], [0.0, 0.3]], 2).rank == 2
        amp = AmplitudeMatrix.normalized(np.diag([1.0, 0.2]))
        verdict = certify_rank1(amp)
        assert verdict.rank == 2 and verdict.holistic
        scan = density_scan(SystemDims(2, 2), 50, 0)
        assert scan.fraction_at_least_one == 1.0
        record = {"dim": 2, "rank": 1, "complement": False,
                  "basis": {"rows": 2, "cols": 1, "re": [1.0, 0.01], "im": [0.0, 0.0]}}
        with pytest.raises(ValueError, match="orthonormal"):
            property_from_json_dict(record)
        p = Property(np.diag([1.0, 0.0]))
        assert np.array_equal(extract_property(from_property(p)).matrix, p.matrix)


class TestValidation:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_rejects_non_finite_or_non_positive(self, value):
        with pytest.raises(ValueError, match="tol_rank"):
            Tolerances(tol_rank=value)

    @pytest.mark.parametrize("field", ["tol_herm", "tol_recon", "tol_compat", "tol_support"])
    def test_residual_thresholds_are_fixed(self, field):
        # the residual checks test identities that hold exactly; only tol_rank is a knob
        with pytest.raises(TypeError):
            Tolerances(**{field: 1e-3})
        assert getattr(Tolerances(tol_rank=0.5), field) == getattr(Tolerances, field) == 1e-9

    def test_as_dict_keeps_field_order(self):
        # config_echo prints the record in this order
        assert list(Tolerances().as_dict()) == [f.name for f in fields(Tolerances)]

    @pytest.mark.parametrize("tols, printed", [(Tolerances(), "1e-07"), (Tolerances(tol_rank=1e-3), "0.001")])
    def test_as_dict_prints_as_dataclasses_asdict(self, tols, printed):
        # config_echo must keep its keys, order and bytes, those of mereo 0.4.0
        assert json.dumps(tols.as_dict()) == json.dumps(dataclasses.asdict(tols)) == (
            '{"tol_herm": 1e-09, "tol_recon": 1e-09, "tol_rank": %s, "tol_compat": 1e-09, "tol_support": 1e-09}'
            % printed
        )
        echo = tols.as_dict()
        echo["tol_rank"] = 0.5
        assert tols.tol_rank != 0.5 and tols.as_dict()["tol_rank"] == tols.tol_rank
