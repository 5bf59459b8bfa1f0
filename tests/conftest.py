from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from vecsim.config import ScenarioConfig, load_scenario

# every property test draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "vecsim" / "scenarios"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.json"


def load_bundled(name: str, **overrides) -> ScenarioConfig:
    """Fresh config per call; overrides are dotted paths with dots as double underscores."""
    return load_scenario(scenario_path(name), {k.replace("__", "."): v for k, v in overrides.items()})


@pytest.fixture
def smoke_cfg() -> ScenarioConfig:
    return load_bundled("smoke")
