"""Truths beyond mx = 2: rotated direct sums of aligned models.

Aligned blocks ``B_1, ..., B_k`` and an orthogonal ``R`` make the aligned
model with ``sigma_x = R (sigma_x_1 + ... + sigma_x_k) R^T`` (a direct
sum) and the same for both noises.  The solver sees a dense model, but its
curve is known:

- every block-diagonal ``R (Q_1 + ... + Q_k) R^T`` achieves the blocks'
  summed rate pair, so the curve is at least the sup-convolution of the
  blocks' curves;
- the blocks' KKT points at a common multiplier make ``M(mu)`` and the
  enhanced noise block-diagonal, so by the enhancement argument the
  sup-convolution is the curve and the optimum is block-diagonal in
  ``R``'s frame;
- ``asymptotic_limit`` adds over the blocks, and the slope at the corner,
  ``mu0 = kkt.closed_form_mu(w, I)`` on the whitened model ``w``, is the
  blocks' largest;
- the curve depends on the blocks alone, so a second rotation of the same
  blocks has the same curve;
- every optimum above is a KKT point, so every solve, in either rotation,
  is converged and certifies, with no ascent.

The blocks have mx 1 or 2, where ``brute_force_grid`` gives each block's
curve by an arithmetic path of its own, so the sup-convolution of the
blocks' oracle curves is a truth for models of mx 3 to 8, where the oracle
refuses.
"""

import functools

import numpy as np
import pytest

from gausskey import AlignedModel, asymptotic_limit, brute_force_grid, certify, kkt
from gausskey import rates_aligned, solve_at_rate, solver
from gausskey.models import whiten

from conftest import random_aligned, rng_for

# each direct sum, named by its mx: the seed of its first block and the
# block sizes.  Block k of a sum is random_aligned(rng_for(first + k), d),
# and a sum of size mx is rotated by the Haar draw of rng_for(9100 + mx),
# or of rng_for(9200 + mx) for the second rotation.
# The seeds run on over the sums in this order, but mx3b's follow the last
# sum's: the blocks of seeds 9011 and 9012 have no key rate at any public
# rate, so their curve is 0, which no value can fall below
SUMS = {"mx3a": (9000, (1, 2)), "mx4a": (9002, (2, 2)), "mx6a": (9004, (2, 2, 2)),
        "mx8a": (9007, (2, 2, 2, 2)), "mx3b": (9025, (2, 1)), "mx4b": (9013, (1, 1, 2)),
        "mx6b": (9016, (1, 2, 1, 2)), "mx8b": (9020, (1, 1, 2, 2, 2))}
RATES = (1e-6, 0.05, 0.3, 1.0, 3.0, 6.0, 12.0, 16.0)
# the rates of the blocks' oracle curves
ORACLE_GRID = np.round(np.arange(801) * 0.02, 12)
ROTATIONS = (9100, 9200)


def _haar(rng, n):
    """A Haar-distributed orthogonal matrix: the Q factor of a Gaussian
    matrix, its columns' signs fixed by the R factor's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@functools.cache
def _direct_sum(name, rotation=9100):
    """``(m, blocks, R)``: the direct sum ``name`` of ``SUMS``, rotated by
    the Haar draw of ``rng_for(rotation + mx)``."""
    first, dims = SUMS[name]
    blocks = [random_aligned(rng_for(first + k), d) for k, d in enumerate(dims)]
    mx = sum(dims)
    r = _haar(rng_for(rotation + mx), mx)

    def summed(field):
        out = np.zeros((mx, mx))
        i = 0
        for b in blocks:
            out[i:i + b.mx, i:i + b.mx] = getattr(b, field)
            i += b.mx
        return r @ out @ r.T

    return AlignedModel(*(summed(f) for f in ("sigma_x", "sigma_wy", "sigma_wz"))), blocks, r


@functools.cache
def _solve(name, rp, rotation=9100):
    return solve_at_rate(_direct_sum(name, rotation)[0], rp)


@functools.cache
def _oracle_curve(name):
    """The sup-convolution of the blocks' ``brute_force_grid`` curves on
    ``ORACLE_GRID``: at each grid rate, the best sum of the blocks' oracle
    values over the splits of that rate on the grid."""
    curve = None
    for b in _direct_sum(name)[1]:
        block = np.array([brute_force_grid(b, float(rp)).rk for rp in ORACLE_GRID])
        curve = block if curve is None else np.array(
            [np.max(curve[:j + 1] + block[j::-1]) for j in range(len(ORACLE_GRID))])
    return curve


def _mu0(m):
    w = whiten(m)[0]
    return kkt.closed_form_mu(w, np.eye(w.mx))


@pytest.mark.parametrize("name", SUMS)
def test_the_limit_adds_and_the_corner_slope_is_the_largest_blocks(name):
    m, blocks, _ = _direct_sum(name)
    limit = sum(asymptotic_limit(b) for b in blocks)
    assert asymptotic_limit(m) == pytest.approx(limit, rel=1e-12, abs=0.0)
    assert _mu0(m) == pytest.approx(max(_mu0(b) for b in blocks), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rp", RATES)
@pytest.mark.parametrize("name", SUMS)
def test_the_optimum_is_block_diagonal_in_the_rotated_frame(name, rp):
    # rotated back, the optimum splits into the blocks' conditional
    # covariances, and its value is the sum of theirs.  The rotation's
    # round-off is symmetrized away: at rp 12 a block whose entries are
    # about 1e-6 would fail the symmetry check by it
    m, blocks, r = _direct_sum(name)
    report = _solve(name, rp)
    q = r.T @ report.optimum.value @ r
    q = 0.5 * (q + q.T)
    off, rk, i = q.copy(), 0.0, 0
    for b in blocks:
        off[i:i + b.mx, i:i + b.mx] = 0.0
        rk += rates_aligned(b, q[i:i + b.mx, i:i + b.mx]).rk
        i += b.mx
    assert np.max(np.abs(off)) <= 1e-10 * np.max(np.abs(q))
    assert abs(report.value - rk) <= 1e-10


@pytest.mark.parametrize("rp", RATES)
@pytest.mark.parametrize("name", SUMS)
def test_every_solve_converges_and_certifies(name, rp):
    # in both rotations, with no ascent.  Six solves ended unconverged (mx8a
    # at rp 3 and 6 and mx6b at rp 0.05, in both rotations: 0.93642 for
    # 0.93857, 1.00649 for 1.03194 and 0.031675 for 0.034898), and these and
    # six more ran the ascent, while the face polish took the unit
    # directions it freed from the basis ``eigh`` gave, not from M(mu)
    for rotation in ROTATIONS:
        report = _solve(name, rp, rotation)
        assert report.converged and report.iterations == 0
        cert = certify(_direct_sum(name, rotation)[0], report.optimum, rp)
        assert cert.max_residual < 1e-6


@pytest.mark.parametrize("rp", RATES)
@pytest.mark.parametrize("name", SUMS)
def test_the_value_meets_the_blocks_oracle_curves(name, rp):
    bound = _oracle_curve(name)[np.searchsorted(ORACLE_GRID, rp, side="right") - 1]
    assert _solve(name, rp).value >= bound - 1e-9


@pytest.mark.parametrize("rp", RATES)
@pytest.mark.parametrize("name", SUMS)
def test_a_second_rotation_gives_the_same_value(name, rp):
    # the 64 pairs agree to 6.0e-15.  At mx8a rp 3 the two rotations once
    # ended at 0.93642 and 0.93857, as round-off picked the unit direction
    # that the face polish freed
    assert abs(_solve(name, rp, ROTATIONS[1]).value - _solve(name, rp).value) <= 1e-12


def test_no_solve_forms_the_second_commuting_part(monkeypatch):
    # the solve polishes the commuting part in sigma_wy's eigenbasis; the
    # one in sigma_wz's (swap) is only the ascent's sixth start, and no
    # solve here runs the ascent.  The forced ascent's positive control is
    # test_aligned_points.test_no_benchmark_solve_forms_the_second_commuting_part
    swaps = []
    start = solver._commuting_start
    monkeypatch.setattr(solver, "_commuting_start",
                        lambda w, rp, swap: swaps.append(swap) or start(w, rp, swap))
    for name in SUMS:
        for rotation in ROTATIONS:
            for rp in RATES:
                solve_at_rate(_direct_sum(name, rotation)[0], rp)
    assert swaps == [False] * len(SUMS) * len(ROTATIONS) * len(RATES)
