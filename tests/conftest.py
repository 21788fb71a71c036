import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ialc.modelgen import Signature, enumerate_models  # noqa: E402
from ialc.sequent import load_proof  # noqa: E402

GOLDEN_DIR = ROOT / "golden"


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def golden_trees() -> dict:
    """The committed hand-written axiom derivations golden/axiom1..5.prf, keyed 1..5."""
    return {i: load_proof(str(GOLDEN_DIR / f"axiom{i}.prf")) for i in range(1, 6)}


@pytest.fixture(scope="session")
def two_world_models():
    """Every interpretation over <= 2 worlds, atoms A/B, one role R."""
    return list(enumerate_models(Signature(atoms=("A", "B"), roles=("R",),
                                           max_worlds=2)))


@pytest.fixture(scope="session")
def two_world_models_nominals():
    """Same family extended with assignments for nominals x and y."""
    return list(enumerate_models(Signature(atoms=("A", "B"), roles=("R",),
                                           nominals=("x", "y"), max_worlds=2)))
