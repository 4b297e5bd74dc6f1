"""Shipped-dataset lookup, overridable per call or via NILPOTENT_DATA_DIR."""

from __future__ import annotations

import os
from importlib import resources

DATA_ENV_VAR = "NILPOTENT_DATA_DIR"


class MissingDataError(LookupError):
    """A dataset file lacks an entry the program reads."""


class InvalidDataError(ValueError):
    """A dataset file holds a value outside the domain the program reads it in."""


class DatasetRecord(dict):
    """One JSON object of a dataset file; a missing key names the file."""

    def __init__(self, source: str, items: dict):
        super().__init__(items)
        self.source = source

    def __missing__(self, key):
        raise MissingDataError(f"{self.source} has no key {key!r}")


def data_path(name: str, data_dir=None) -> str:
    data_dir = data_dir or os.environ.get(DATA_ENV_VAR)
    if data_dir:
        path = os.path.join(data_dir, name)
        if not os.path.exists(path):
            raise FileNotFoundError(f"dataset file {name} not found in {data_dir}")
        return path
    return str(resources.files("nilpotent").joinpath("data", name))
