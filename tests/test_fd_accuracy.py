"""Accuracy of `price --solver fd` on its default grid, against committed references.

Every state takes the CLI defaults (r 0.06, delta 0.03, sigma 0.4, K 0.7,
gamma 0.1, T 5, spot 0.7) but for its flags.  The regime-1 to regime-3
references are Richardson extrapolations of the CRR lattice's order-1
error, 2 V(32000) - V(16000), each V from `price --steps N`; beside each is
its distance from V(32000), a measure of its own error.  The withdrawable
reference at cap 0.35 is the value both backends extrapolate to: the
lattice converges at order 1/2 (0.145573 at 32000 steps, 0.145649 at
64000) and the FD at order 1 in its space step (0.145478 / 0.145660 /
0.145745 on 1600 / 3200 / 6400 nodes x 200 steps), and both point to
0.14583 within about 1e-5.

Each state's error is bounded by the error measured on the default grid
(900 x 100, BDF2 steps) plus MARGIN, so a change of scheme or grid that
loses accuracy on any state fails here, and one that moves digits shows
its new errors.  The five states at spots 0.8, 0.55 and 0.9 and at r 0.12
are those on which the lattice's smoothed-step variants were measured.
"""

import pytest

import stockloan.cli as cli

MARGIN = 1e-6

# flags, reference, reference - V(32000), error measured on the default grid
STATES = [
    (["--regime", "1"], 0.16671533385825, 7.8e-7, -1.204e-5),
    (["--regime", "2"], 0.20390182359200, 9.0e-7, -1.958e-5),
    (["--regime", "3"], 0.24507015059258, 7.7e-7, -2.288e-5),
    (["--regime", "1", "--spot", "0.8"], 0.22509912205860, -8.4e-7, -1.273e-5),
    (["--regime", "1", "--spot", "0.55"], 0.09387857565109, 7.4e-7, -1.226e-5),
    (["--regime", "2", "--spot", "0.9"], 0.33804253557979, -1.5e-6, -2.059e-5),
    (["--regime", "1", "--r", "0.12", "--delta", "0.05", "--spot", "1.0"],
     0.38116138208959, 2.0e-7, -7.240e-6),
    (["--regime", "3", "--maturity", "1"], 0.11069582509964, 5.2e-7, -7.120e-6),
    (["--regime", "1", "--spot", "0.9", "--sigma", "0.25"], 0.21198520359376, 6.9e-8, -1.239e-6),
    (["--regime", "2", "--spot", "0.9", "--maturity", "2", "--sigma", "0.3"],
     0.23191058688933, -1.7e-6, -5.501e-6),
    (["--regime", "1", "--spot", "0.6", "--maturity", "1"], 0.04815583617749, -5.1e-7, -5.344e-6),
    (["--variant", "withdrawable", "--cap", "0.35"], 0.14583, None, -6.115e-4),
]


@pytest.mark.parametrize("state", STATES, ids=[" ".join(state[0]) for state in STATES])
def test_fd_default_grid_error_stays_within_its_measured_bound(state, capsys):
    flags, reference, _, error = state
    assert cli.main(["price", "--solver", "fd"] + flags) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert abs(float(captured.out) - reference) <= abs(error) + MARGIN
