import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from vecmatch import GrayImage


def random_gray(rng: np.random.Generator, height: int, width: int) -> GrayImage:
    return GrayImage(rng.integers(0, 256, (height, width), dtype=np.uint8))


def textured_gray(
    rng: np.random.Generator, height: int, width: int, blur: int = 8
) -> GrayImage:
    """Box-blurred noise: locally distinctive but spatially correlated, so
    coarse pyramid levels stay informative (unlike white noise)."""
    noise = rng.random((height + blur - 1, width + blur - 1))
    smooth = sliding_window_view(noise, blur, axis=0).mean(axis=-1)
    smooth = sliding_window_view(smooth, blur, axis=1).mean(axis=-1)
    smooth = (smooth - smooth.min()) / (smooth.max() - smooth.min()) * 255
    return GrayImage(np.floor(smooth + 0.5).astype(np.uint8))


def count_calls(monkeypatch, module, names) -> list[str]:
    """Replace each named attribute of module with a wrapper that appends the
    name to the returned list on every call."""
    calls = []
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260824)
