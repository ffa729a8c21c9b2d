"""Reference computations the benchmark checks the program against.

Nothing here imports twoslit: each formula is written out again from
its definition, so a fault in the library cannot hide in its own check.

- Epipolar tensor of a camera pair: entry (i, j, k, l), one-based, is
  (-1)^(i+j+k+l) det[row 3-i of A1; row 3-j of A2; row 3-k of B1;
  row 3-l of B2].
- Projection through a camera (A1, A2) with rows p1, p2 and q1, q2:
  u = (p1.x q2.x, p2.x q1.x, p2.x q2.x).
- Normalized multilinear residual of a correspondence (u, v): the form
  sum F_ijkl a_i b_j c_k d_l with a = (u1, u3), b = (u2, u3),
  c = (v1, v3), d = (v2, v3), divided by |a| |b| |c| |d| |F|.

Run this file to check the reference tensor against the golden pair
that the library ships:  python3 perfbench/reference.py
"""

import itertools

import numpy as np


def tensor(A1, A2, B1, B2):
    """(2, 2, 2, 2) tensor of the camera pair ((A1, A2), (B1, B2))."""
    rows = (np.asarray(A1, float), np.asarray(A2, float),
            np.asarray(B1, float), np.asarray(B2, float))
    stacks = np.empty((16, 4, 4))
    signs = np.empty(16)
    for n, idx in enumerate(itertools.product(range(2), repeat=4)):
        stacks[n] = [rows[m][1 - i] for m, i in enumerate(idx)]
        signs[n] = (-1.0) ** sum(idx)
    return (signs * np.linalg.det(stacks)).reshape(2, 2, 2, 2)


def project(A1, A2, points):
    """Images (n, 3) of homogeneous points (n, 4)."""
    x = np.asarray(points, float)
    p1x, p2x = np.asarray(A1, float) @ x.T
    q1x, q2x = np.asarray(A2, float) @ x.T
    return np.stack([p1x * q2x, p2x * q1x, p2x * q2x], axis=1)


def residuals(F, correspondences):
    """Normalized residual of each row u1, u2, u3, v1, v2, v3."""
    F = np.asarray(F, float).reshape(2, 2, 2, 2)
    c = np.asarray(correspondences, float)
    a, b, cc, d = c[:, [0, 2]], c[:, [1, 2]], c[:, [3, 5]], c[:, [4, 5]]
    value = np.einsum("ijkl,ni,nj,nk,nl->n", F, a, b, cc, d)
    scale = (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
             * np.linalg.norm(cc, axis=1) * np.linalg.norm(d, axis=1))
    return value / (scale * np.linalg.norm(F))


def tensor_gap(F, G):
    """Largest entry gap between two tensors at unit norm, either sign."""
    f = np.asarray(F, float).ravel()
    g = np.asarray(G, float).ravel()
    f = f / np.linalg.norm(f)
    g = g / np.linalg.norm(g)
    return float(min(np.max(np.abs(f - g)), np.max(np.abs(f + g))))


def self_test(golden):
    """The reference tensor of the golden pair equals the golden tensor.

    The golden entries are integers, so the determinants must round to
    them exactly. Returns the largest rounding gap; raises on mismatch.
    """
    F = tensor(golden.REFERENCE_A1, golden.REFERENCE_A2,
               golden.REFERENCE_B1, golden.REFERENCE_B2)
    expected = np.asarray(golden.REFERENCE_TENSOR, float)
    gap = float(np.max(np.abs(F - expected)))
    if not (np.array_equal(np.rint(F), expected) and gap < 1e-6):
        raise AssertionError(
            f"reference tensor of the golden pair is off by {gap:.3e}")
    return gap


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    from twoslit import golden as _golden

    print(f"golden tensor reproduced, largest gap {self_test(_golden):.1e}")
