import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis imports this module to report a failing example, and its import of
# libcst imports ``mypy_extensions.TypedDict``, which warns that it is deprecated.
# Under ``filterwarnings = error`` that warning would abort the whole run, so the
# module is imported here first with that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst, Hypothesis reports a failing example without a patch
        pass

from equiflow.config import default_config, default_env_config


@pytest.fixture(scope="session")
def env_cfg():
    """The shipped default environment (training water budget)."""
    return default_env_config()


@pytest.fixture(scope="session")
def quick_env(env_cfg):
    """Default world with a small budget so episodes finish in a few steps."""
    return replace(env_cfg, total_to_distribute=180_000)


@pytest.fixture(scope="session")
def experiment_cfg():
    return default_config()
