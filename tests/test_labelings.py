"""The labeling space shared by potts_grid and the segmentation posterior,
pinned byte for byte against per-labeling reference loops.

The references decode a code digit by digit in Python, count agreeing
neighbour pairs over an explicit edge list and relabel one site at a
time, so they share no code with statespace's array-based builder.
"""

import numpy as np
import pytest

from eelab.statespace import (
    FiniteDistribution,
    builtin_model,
    labeling_code,
    labelings,
)
from eelab.swcut import (
    Image,
    Labeling,
    RegionModelConfig,
    enumerate_posterior,
    posterior_logdensity,
)


def decode(code, labels, n_sites):
    """Digit s of code in base labels, site 0 least significant."""
    digits = []
    for _ in range(n_sites):
        code, d = divmod(code, labels)
        digits.append(d)
    return digits


def edges(width, height):
    return ([(r * width + c, r * width + c + 1)
             for r in range(height) for c in range(width - 1)]
            + [(r * width + c, (r + 1) * width + c)
               for r in range(height - 1) for c in range(width)])


def relabelings(code, labels, n_sites):
    """Every single-site relabeling of code, site by site, label by label."""
    digits = decode(code, labels, n_sites)
    return tuple(code + (v - digits[s]) * labels ** s
                 for s in range(n_sites) for v in range(labels)
                 if v != digits[s])


# (width, height, labels, beta)
POTTS = [(1, 5, 2, 0.4), (2, 2, 3, 0.7), (3, 2, 3, 0.0), (3, 3, 2, 1.3),
         (1, 1, 200, 0.5), (1, 2, 300, 0.2)]


@pytest.mark.parametrize("width,height,labels,beta", POTTS,
                         ids=[f"{w}x{h}-L{L}-beta{b}" for w, h, L, b in POTTS])
def test_potts_grid_matches_per_labeling_reference(width, height, labels, beta):
    m = builtin_model("potts_grid", width=width, height=height, labels=labels,
                      beta=beta)
    n_sites = width * height
    pairs = edges(width, height)
    ref = np.array([-beta * sum(w[i] == w[j] for i, j in pairs)
                    for w in (decode(x, labels, n_sites) for x in range(m.size))],
                   dtype=np.float64)
    assert m.h.tobytes() == ref.tobytes()
    # every state of the small spaces; a spread of states and the last one
    # of the 90,000 labelings of the 1x2 grid
    for x in sorted({*range(0, m.size, max(1, m.size // 400)), m.size - 1}):
        assert m.neighbors(x) == relabelings(x, labels, n_sites)


@pytest.mark.parametrize("labels", [2, 3, 200, 300])
def test_labelings_and_labeling_code_are_inverse(labels):
    width, height = (2, 2) if labels < 10 else (1, 2)
    codes = np.arange(0, labels ** (width * height), 7)
    lab = labelings(codes, labels, width, height)
    assert lab.shape == (len(codes), height, width)
    for code, w in zip(codes.tolist(), lab):
        assert w.reshape(-1).tolist() == decode(code, labels, width * height)
        assert labeling_code(w, labels) == code


def test_codes_beyond_int64_round_trip():
    code = 3 ** 80 + 5  # a 9x9 grid has 3**81 labelings
    lab = labelings([code], 3, 9, 9)
    assert lab.shape == (1, 9, 9)
    assert lab.reshape(-1).tolist() == decode(code, 3, 81)
    assert labeling_code(lab[0], 3) == code


POSTERIOR_CFGS = {
    "fixed_means": RegionModelConfig(mode="fixed_means", sigma=0.2,
                                     means=(0.2, 0.5, 0.8)),
    "poly_fit": RegionModelConfig(mode="poly_fit", sigma=0.2, order=1),
}


@pytest.mark.parametrize("labels", [2, 3])
@pytest.mark.parametrize("mode", sorted(POSTERIOR_CFGS))
def test_enumerate_posterior_matches_per_code_reference(mode, labels):
    image = Image(2, 3, np.array([[0.1, 0.8], [0.4, 0.6], [0.9, 0.2]]))
    cfg = POSTERIOR_CFGS[mode]
    n_sites = image.n_pixels
    logpost = [posterior_logdensity(
        image, Labeling(np.array(decode(x, labels, n_sites)).reshape(3, 2) + 1,
                        labels), 0.6, cfg)
        for x in range(labels ** n_sites)]
    ref = FiniteDistribution.from_logweights(logpost)
    post = enumerate_posterior(image, labels, 0.6, cfg)
    assert post.probs.tobytes() == ref.probs.tobytes()
