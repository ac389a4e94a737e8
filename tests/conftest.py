import math

import numpy as np
import pytest
from hypothesis import settings

from catteleport.oracle import FockDensity
from catteleport.states import AtomLevel, TermState, overlap

# Fixed draws, no per-example deadline and a stop at the first failing
# example, so that a run of the suite is repeatable and its time bounded; a
# test may still set its own max_examples.
settings.register_profile("repeatable", derandomize=True, deadline=None, max_examples=100,
                          report_multiple_bugs=False)
settings.load_profile("repeatable")


def fock_overlap(a: complex, b: complex, tail: float = 1e-14) -> complex:
    """Independent coherent-overlap oracle: direct Fock-series summation.

    Sums conj(c_n(a)) * c_n(b) until the remaining Poisson tail mass of both
    amplitudes drops below ``tail``.
    """
    a, b = complex(a), complex(b)
    ca = math.exp(-0.5 * abs(a) ** 2)
    cb = math.exp(-0.5 * abs(b) ** 2)
    term_a, term_b = complex(ca), complex(cb)
    total = np.conj(term_a) * term_b
    mass_a, mass_b = abs(term_a) ** 2, abs(term_b) ** 2
    n = 0
    while min(mass_a, mass_b) < 1.0 - tail or n < 5:
        n += 1
        term_a *= a / math.sqrt(n)
        term_b *= b / math.sqrt(n)
        total += np.conj(term_a) * term_b
        mass_a += abs(term_a) ** 2
        mass_b += abs(term_b) ** 2
        if n > 500:
            raise RuntimeError("Fock oracle failed to converge")
    return total


def assert_terms_match(state: TermState, expected, tol: float = 1e-12):
    """Structural comparison of a TermState against (w, atom, amp1, amp2) rows."""
    remaining = list(state.terms)
    for w, atom, a1, a2 in expected:
        atom = AtomLevel(atom) if not isinstance(atom, AtomLevel) else atom
        for i, t in enumerate(remaining):
            if (
                t.atom is atom
                and abs(t.amp1 - complex(a1)) < tol
                and abs(t.amp2 - complex(a2)) < tol
                and abs(t.weight - complex(w)) < tol
            ):
                del remaining[i]
                break
        else:
            raise AssertionError(
                f"missing term ({w!r}, {atom}, {a1!r}, {a2!r}); state has {state.terms}"
            )
    assert not remaining, f"unexpected extra terms: {remaining}"


def drain_matrix(p) -> np.ndarray:
    """M = [[A, C], [D, B]] of ``DrainParams`` p, so that u(t) = expm(-M t)."""
    return np.array([[p.A, p.C], [p.D, p.B]], dtype=complex)


def coefficient_matrix(mix) -> np.ndarray:
    """2x2 coefficient matrix P of a ``CatMixture``: rho = N sum_ij P_ij |s_i><s_j|
    on the coherent pair s = (|amp>, |-amp>)."""
    return np.array([[mix.w_pp, mix.coh], [np.conj(mix.coh), mix.w_mm]], dtype=complex)


def _gram(mix) -> np.ndarray:
    g = overlap(mix.amp, -mix.amp)
    return np.array([[1.0, g], [np.conj(g), 1.0]], dtype=complex)


def mixture_trace(mix) -> float:
    return mix.norm_const * np.trace(_gram(mix) @ coefficient_matrix(mix)).real


def is_physical(mix) -> bool:
    """Unit trace and positive semidefiniteness of a ``CatMixture``'s density."""
    if abs(mixture_trace(mix) - 1.0) > 1e-12:
        return False
    w, v = np.linalg.eigh(_gram(mix))
    # rho >= 0  iff  sqrt(G) P sqrt(G) >= 0 in the coherent pair basis
    sq = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    eig = np.linalg.eigvalsh(sq @ coefficient_matrix(mix) @ sq)
    return bool(eig.min() >= -1e-10)


def validate_density(rho) -> None:
    """Raise ValueError unless a ``FockDensity`` is finite, Hermitian, of unit
    trace and positive semidefinite, and TruncationBreach unless its top
    levels are empty."""
    r = rho.entries
    bad = np.count_nonzero(~np.isfinite(r))
    if bad:
        raise ValueError(f"density matrix has {bad} non-finite entries")
    if not np.abs(r - r.conj().T).max() <= 1e-12:   # each check fails on NaN
        raise ValueError("density matrix not Hermitian within 1e-12")
    if not abs(np.trace(r).real - 1.0) <= 1e-10:
        raise ValueError("trace deviates from 1 beyond 1e-10")
    if not np.linalg.eigvalsh((r + r.conj().T) / 2).min() >= -1e-9:
        raise ValueError("density matrix has a negative eigenvalue")
    rho.check_truncation()


def dispersive_pi_fock(rho: FockDensity, phase: float = math.pi) -> FockDensity:
    """Conjugation by the number-phase operator exp(-i*phase*n) (single mode)."""
    if len(rho.mode_dims) != 1:
        raise ValueError("dispersive pulse oracle is single-mode")
    n = np.arange(len(rho.entries))
    u = np.exp(-1j * phase * n)
    out = (u[:, None] * rho.entries) * u.conj()[None, :]
    return FockDensity(out, rho.mode_dims)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
