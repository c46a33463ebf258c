"""The per-pixel Gamma index, the reference `metrics.salt_pepper_count` is checked against."""

import numpy as np

from floodem.grid import NEIGHBOR_OFFSETS


def gamma_index(pred: np.ndarray, pixel: tuple[int, int], neighborhood: int = 8) -> float:
    """Local agreement statistic in [-1, 1].

    Classes map to +/-1; the statistic averages the pixel's sign times each
    in-grid neighbour's, so border pixels just use fewer terms. A pixel with
    no neighbours at all scores 0.
    """
    sign = np.where(np.asarray(pred).astype(bool), 1, -1)
    h, w = sign.shape
    r, c = pixel
    terms = [int(sign[r, c] * sign[r + dr, c + dc]) for dr, dc in NEIGHBOR_OFFSETS[neighborhood]
             if 0 <= r + dr < h and 0 <= c + dc < w]
    return sum(terms) / len(terms) if terms else 0.0
