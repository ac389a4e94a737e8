import math

import numpy as np
import pytest
from hypothesis import settings

from catteleport.states import AtomLevel, TermState

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
