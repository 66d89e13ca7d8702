from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from parapath import DualWeightGraph

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def bench_instances():
    """The benchmark's instance generator, loaded from ``perfbench/``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def diamond() -> DualWeightGraph:
    """Two routes 0->1->3 and 0->2->3 with lines (1,3) and (3,1); they cross at 1/2."""
    return DualWeightGraph.build(
        4,
        [
            (0, 1, "0.5", "1.5"),
            (1, 3, "0.5", "1.5"),
            (0, 2, "1.5", "0.5"),
            (2, 3, "1.5", "0.5"),
        ],
    )


@pytest.fixture
def three_route() -> DualWeightGraph:
    """Routes with lines (1,5), (5/2,5/2), (5,1); envelope breaks at 3/8 and 5/8."""
    return DualWeightGraph.build(
        5,
        [
            (0, 1, "0.5", "2.5"),
            (1, 4, "0.5", "2.5"),
            (0, 2, "1.25", "1.25"),
            (2, 4, "1.25", "1.25"),
            (0, 3, "2.5", "0.5"),
            (3, 4, "2.5", "0.5"),
        ],
    )


@pytest.fixture
def single_edge() -> DualWeightGraph:
    return DualWeightGraph.build(2, [(0, 1, 1, 3)])


def fr(num: int, den: int = 1) -> Fraction:
    return Fraction(num, den)
