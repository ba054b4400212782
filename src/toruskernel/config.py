"""JSON bundle configs: torus basis, Hermitian form, semicharacter, power.

Schema (exact field names)::

    {
      "n": 1,
      "basis": [[1.0, 0.0], [0.0, 1.0]],
      "H": [[{"re": 1.0, "im": 0.0}]],
      "chi_phases": [0.0, 0.0],
      "k": 1
    }

``basis`` holds 2n entries; each entry is either a single [re, im] pair
(allowed when n = 1) or a list of n such pairs.  ``H`` entries are
{"re": ..., "im": ...} objects.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigParseError, ValidationError
from .lattice import PolarizedTorus, Semicharacter


@dataclass(frozen=True)
class BundleConfig:
    torus: PolarizedTorus
    chi: Semicharacter
    k: int


def _number(x, where):
    """float(x) for a finite int or float x, not a bool; anything else raises ConfigParseError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ConfigParseError(f"{where}: expected a finite number, got {x!r}")
    return float(x)


def _parse_pair(entry, where):
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise ConfigParseError(f"{where}: expected a [re, im] pair, got {entry!r}")
    return complex(_number(entry[0], where), _number(entry[1], where))


def _parse_basis(raw, n):
    if not isinstance(raw, list) or len(raw) != 2 * n:
        raise ConfigParseError(f"basis must list 2n = {2 * n} vectors")
    out = np.zeros((2 * n, n), dtype=complex)
    for i, entry in enumerate(raw):
        if n == 1 and isinstance(entry, list) and entry and not isinstance(entry[0], list):
            entry = [entry]                             # the single [re, im] pair of n = 1
        if not isinstance(entry, list) or len(entry) != n:
            raise ConfigParseError(f"basis[{i}] must list n = {n} [re, im] pairs")
        for j, pair in enumerate(entry):
            out[i, j] = _parse_pair(pair, f"basis[{i}][{j}]")
    return out


def _parse_H(raw, n):
    if not isinstance(raw, list) or len(raw) != n:
        raise ConfigParseError(f"H must be an {n} x {n} matrix")
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ConfigParseError(f"H[{i}] must have {n} entries")
        for j, cell in enumerate(row):
            if not isinstance(cell, dict) or set(cell) != {"re", "im"}:
                raise ConfigParseError(f'H[{i}][{j}] must be {{"re": ..., "im": ...}}')
            out[i, j] = _parse_pair([cell["re"], cell["im"]], f"H[{i}][{j}]")
    return out


def parse_bundle(data) -> BundleConfig:
    """Build a BundleConfig from a parsed JSON object."""
    if not isinstance(data, dict):
        raise ConfigParseError("config root must be a JSON object")
    missing = {"n", "basis", "H", "chi_phases", "k"} - set(data)
    if missing:
        raise ConfigParseError(f"config missing fields: {sorted(missing)}")
    for name in ("n", "k"):
        if isinstance(data[name], bool) or not isinstance(data[name], int) or data[name] < 1:
            raise ConfigParseError(f"{name} must be a positive integer")
    n, k, phases = data["n"], data["k"], data["chi_phases"]
    if not isinstance(phases, list) or len(phases) != 2 * n:
        raise ConfigParseError(f"chi_phases must list 2n = {2 * n} reals")
    phases = tuple(_number(x, f"chi_phases[{i}]") for i, x in enumerate(phases))
    try:
        torus = PolarizedTorus(n=n, basis=_parse_basis(data["basis"], n), H=_parse_H(data["H"], n))
    except ValidationError as exc:
        raise ConfigParseError(str(exc))
    return BundleConfig(torus=torus, chi=Semicharacter(phases=phases), k=k)


def load_bundle(path) -> BundleConfig:
    """Read and parse a JSON bundle config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"invalid JSON in {path}: {exc}")
    return parse_bundle(data)


def bundle_to_dict(torus, chi, k):
    """Serialize bundle data back to the JSON schema."""
    return {
        "n": torus.n,
        "basis": [[[float(z.real), float(z.imag)] for z in row] for row in torus.basis],
        "H": [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in torus.H],
        "chi_phases": [float(p) for p in chi.phases],
        "k": int(k),
    }
