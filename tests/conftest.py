import warnings

import numpy as np
import pytest

# Hypothesis imports its patch writer lazily, while reporting a failing
# example; under `-W error` a DeprecationWarning that mypy_extensions
# raises on that import turns the report into a pytest INTERNALERROR
# with no falsifying example. Import it here with the warning ignored.
# The patch writer needs libcst, which hypothesis installs only with its
# `codemods` extra; without it hypothesis skips the patch and so may we.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

from llt.types import Beat, Label


def sinusoid_beats(omega, n_beats, length=30, noise=0.0, seed=0,
                   label=Label.NORMAL, phase_span=2 * np.pi):
    rng = np.random.default_rng(seed)
    beats = []
    for _ in range(n_beats):
        phase = rng.uniform(0.0, phase_span)
        amp = rng.uniform(0.5, 1.5)
        y = amp * np.cos(omega * np.arange(length) + phase)
        if noise > 0:
            y = y + noise * rng.standard_normal(length)
        beats.append(Beat(samples=y, label=label))
    return beats


def random_beats(n_beats, length, seed=0, label=Label.NORMAL):
    rng = np.random.default_rng(seed)
    return [Beat(samples=rng.standard_normal(length), label=label)
            for _ in range(n_beats)]


@pytest.fixture
def sin_beats():
    return sinusoid_beats(0.3, 20, length=30, seed=1)
