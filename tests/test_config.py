"""JSON bundle config parsing."""

import json
import math

import numpy as np
import pytest

import toruskernel as tk


def _sq1_dict():
    return {
        "n": 1,
        "basis": [[1.0, 0.0], [0.0, 1.0]],
        "H": [[{"re": 1.0, "im": 0.0}]],
        "chi_phases": [0.0, 0.0],
        "k": 1,
    }


def test_parse_round_trip(skew):
    chi = tk.Semicharacter((0.3, 0.7))
    data = tk.bundle_to_dict(skew, chi, 4)
    bundle = tk.parse_bundle(json.loads(json.dumps(data)))
    assert bundle.k == 4
    assert bundle.chi.phases == chi.phases
    assert np.allclose(bundle.torus.basis, skew.basis)
    assert np.allclose(bundle.torus.H, skew.H)
    assert np.array_equal(bundle.torus.E, skew.E)


def test_load_bundle(tmp_path):
    path = tmp_path / "sq1.json"
    path.write_text(json.dumps(_sq1_dict()))
    bundle = tk.load_bundle(path)
    assert bundle.torus.pfaffian_abs() == 1
    assert bundle.chi.phases == (0.0, 0.0)
    assert bundle.k == 1


def test_nested_basis_form_accepted():
    data = _sq1_dict()
    data["basis"] = [[[1.0, 0.0]], [[0.0, 1.0]]]
    bundle = tk.parse_bundle(data)
    assert np.allclose(bundle.torus.basis, [[1.0], [1j]])


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("H"),
    lambda d: d.update(n=0),
    lambda d: d.update(n="one"),
    lambda d: d.update(k=0),
    lambda d: d.update(chi_phases=[0.0]),
    lambda d: d.update(basis=[[1.0, 0.0]]),
    lambda d: d.update(basis=[[1.0, "x"], [0.0, 1.0]]),
    lambda d: d.update(H=[[1.0]]),
    lambda d: d.update(H=[[{"re": 1.0}]]),
    lambda d: d.update(n=True),
    lambda d: d.update(k=True),
    lambda d: d.update(H=[[{"re": math.nan, "im": 0.0}]]),
    lambda d: d.update(basis=[[math.inf, 0.0], [0.0, 1.0]]),
    lambda d: d.update(basis=json.loads("[[1.0, 0.0], [0.0, 1e400]]")),
    lambda d: d.update(H=[[{"re": None, "im": 0}]]),
    lambda d: d.update(H=[[{"re": [1], "im": 0}]]),
    lambda d: d.update(H=[[{"re": "1.0", "im": 0}]]),
    lambda d: d.update(H=[[{"re": True, "im": 0}]]),
    lambda d: d.update(basis=[[True, 0.0], [0.0, 1.0]]),
    lambda d: d.update(basis=[["1.0", 0.0], [0.0, 1.0]]),
    lambda d: d.update(chi_phases=["0.5", 0.0]),
    lambda d: d.update(chi_phases=[True, 0.0]),
    lambda d: d.update(chi_phases=[math.nan, 0.0]),
    lambda d: d.update(basis=[1.0, 2.0]),
    lambda d: d.update(basis=[[10 ** 400, 0.0], [0.0, 1.0]]),
])
def test_malformed_configs_rejected(mutate):
    data = _sq1_dict()
    mutate(data)
    with pytest.raises(tk.ConfigParseError):
        tk.parse_bundle(data)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(tk.ConfigParseError):
        tk.load_bundle(tmp_path / "absent.json")


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(tk.ConfigParseError):
        tk.load_bundle(path)


def test_config_errors_are_validation_errors():
    assert issubclass(tk.ConfigParseError, tk.ValidationError)
