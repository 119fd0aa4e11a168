from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from xmathml import parse_xmath
from treegen import random_document

FIXTURES = Path(__file__).parent / "fixtures"

# pytest's ``pythonpath`` setting puts src/ on this process's path only;
# the CLI subprocess tests need it too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in os.environ.get("PYTHONPATH", "").split(os.pathsep):
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])
    )

CORPUS_SEED = 20260810
CORPUS_SIZE = 1000


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text("utf-8")


@pytest.fixture
def sum_function_xmath() -> str:
    return fixture_text("sum_function.xmath.xml")


@pytest.fixture
def sum_function_mathml() -> str:
    return fixture_text("sum_function.mathml.xml")


@pytest.fixture
def quantum_xmath() -> str:
    return fixture_text("quantum_defint.xmath.xml")


@pytest.fixture
def quantum_mathml() -> str:
    return fixture_text("quantum_defint.mathml.xml")


@pytest.fixture
def sum_function_doc(sum_function_xmath):
    return parse_xmath(sum_function_xmath)


@pytest.fixture
def quantum_doc(quantum_xmath):
    return parse_xmath(quantum_xmath)


@pytest.fixture(scope="session")
def corpus():
    """The shared random-document corpus for the property suites."""
    rng = random.Random(CORPUS_SEED)
    return [random_document(rng=rng) for _ in range(CORPUS_SIZE)]
