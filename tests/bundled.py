"""The JSON data files bundled in ``locert/data``, for the tests."""

from __future__ import annotations

import json
from importlib import resources


def data_path(name: str) -> str:
    """Path of a bundled data file."""
    return str(resources.files("locert.data").joinpath(name))


def data_file(name: str) -> dict:
    """Load a bundled data file by name."""
    with open(data_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)
