"""Versioned JSON serialization for generated problem instances.

Document layout: {"format_version": 1, "family": ..., "seed": ...,
"params": {scalar fields}, "data": {dense arrays as nested lists}}.
Floats are written with full round-trip precision (Python's json module
uses repr), so write-then-read reproduces every field bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict

import numpy as np

from .families import FAMILIES, family_of

__all__ = ["save_instance", "load_instance"]

FORMAT_VERSION = 1
_DOC_KEYS = {"format_version", "family", "seed", "params", "data"}


def save_instance(inst: Any, path: str) -> None:
    """Write an instance of a family in ``FAMILIES`` as a versioned JSON document."""
    family = family_of(inst).name
    params: Dict[str, Any] = {}
    data: Dict[str, Any] = {}
    for field in dataclasses.fields(inst):
        value = getattr(inst, field.name)
        if isinstance(value, np.ndarray):
            data[field.name] = {"shape": list(value.shape), "values": value.tolist()}
        elif field.name == "seed":
            continue
        elif isinstance(value, tuple):
            params[field.name] = list(value)
        else:
            params[field.name] = value
    doc = {
        "format_version": FORMAT_VERSION,
        "family": family,
        "seed": int(inst.seed),
        "params": params,
        "data": data,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_instance(path: str) -> Any:
    """Read an instance document written by save_instance.

    Raises ValueError on a key that save_instance would not write: a
    top-level key beyond the five, a ``params`` or ``data`` key that is not
    a field of the family's instance class (``seed`` included), or a field
    given in both sections; and on a data entry whose ``shape`` is not a list
    of non-negative integers or whose ``values`` are not numbers of it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"instance file {path} must hold a JSON object")
    unknown = sorted(set(doc) - _DOC_KEYS)
    if unknown:
        raise ValueError(f"unknown key(s) {unknown} in instance file {path}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    family = doc.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    for key in ("seed", "params", "data"):
        if key not in doc:
            raise ValueError(f"instance file {path} is missing field {key!r}")
    seed, params, data = doc["seed"], doc["params"], doc["data"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed in instance file {path} must be an integer")
    cls = FAMILIES[family].instance_type
    fields = {field.name for field in dataclasses.fields(cls)} - {"seed"}
    for key, value in (("params", params), ("data", data)):
        if not isinstance(value, dict):
            raise ValueError(f"{key} in instance file {path} must be a JSON object")
        unknown = sorted(set(value) - fields)
        if unknown:
            raise ValueError(f"unknown key(s) {unknown} in {key} of instance file {path}")
    twice = sorted(set(params) & set(data))
    if twice:
        raise ValueError(f"key(s) {twice} in both params and data of instance file {path}")

    kwargs: Dict[str, Any] = {"seed": seed}
    for field in dataclasses.fields(cls):
        if field.name == "seed":
            continue
        if field.name in data:
            entry = data[field.name]
            where = f"data entry {field.name!r} in instance file {path}"
            if not (isinstance(entry, dict) and "shape" in entry and "values" in entry):
                raise ValueError(f"{where} must be an object with 'shape' and 'values'")
            shape = entry["shape"]
            if not (isinstance(shape, list) and all(type(k) is int and k >= 0 for k in shape)):
                raise ValueError(f"{where}: shape {shape!r} is not a list of non-negative integers")
            try:
                kwargs[field.name] = np.asarray(entry["values"], dtype=float).reshape(shape)
            except (TypeError, ValueError) as exc:  # values that are not numbers of that shape
                raise ValueError(f"{where}: {exc}") from exc
        elif field.name in params:
            value = params[field.name]
            kwargs[field.name] = tuple(value) if isinstance(value, list) else value
        else:
            raise ValueError(f"missing field {field.name!r} for family {family!r}")
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a parameter of the wrong type
        raise ValueError(f"instance file {path}: {exc}") from exc
