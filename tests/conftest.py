import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from veriledger.core import ONE
from veriledger.detection import similarity
from veriledger.sim import ScenarioRunner, parse_scenario

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
# For ``--hypothesis-profile=deep``: fresh random cases on every run, and more
# of them, for the bit-exactness tests that "ci" pins to the same cases.
settings.register_profile(
    "deep",
    parent=settings.get_profile("ci"),
    derandomize=False,
    max_examples=600,
)
settings.load_profile("ci")

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CONFIG_PATH = REPO_ROOT / "scenarios" / "golden.json"
GOLDEN_FIXTURE_DIR = Path(__file__).resolve().parent / "golden"


def random_bytes(rng, n: int) -> bytes:
    """n bytes from ``rng``; each ``next_u64`` gives 8 big-endian bytes."""
    return b"".join(rng.next_u64().to_bytes(8, "big") for _ in range(-(-n // 8)))[:n]


def indices(embedding) -> tuple[int, ...]:
    """The indices at which ``embedding`` stores a value, ascending."""
    bitmap = embedding.bitmap
    return tuple(i for i in range(embedding.dimension) if bitmap[i >> 3] & 0x80 >> (i & 7))


def dense(embedding) -> tuple[int, ...]:
    """The dense vector ``embedding`` holds: 0 wherever it stores nothing."""
    values = [0] * embedding.dimension
    for i, v in zip(indices(embedding), embedding.stored):
        values[i] = v
    return tuple(values)


def q16(top: int, bottom: int) -> int:
    """``floor(ONE * sqrt(top / bottom))``: the Q16 score of a cosine whose
    square is ``top / bottom``."""
    return math.isqrt(ONE * ONE * top // bottom)


def score(a, b) -> int:
    """The score of ``a`` and ``b`` as a result commits it, from the exact
    squared cosine that ``similarity`` returns."""
    return q16(*similarity(a, b))


def json_containers(value):
    """Every dict and list in ``value``, ``value`` included."""
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from json_containers(child)


def load_golden_config():
    return parse_scenario(json.loads(GOLDEN_CONFIG_PATH.read_text()))


@pytest.fixture(scope="session")
def golden_config():
    return load_golden_config()


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory, golden_config):
    """One shared golden-scenario run with artifacts on disk."""
    out_dir = tmp_path_factory.mktemp("golden-run")
    result = ScenarioRunner(golden_config).run(out_dir=out_dir)
    return SimpleNamespace(result=result, out_dir=out_dir, config=golden_config)
