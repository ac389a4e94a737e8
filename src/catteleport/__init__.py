"""Teleportation of Schroedinger-cat field states inside a lossy bimodal cavity.

Symbolic coherent-state protocol engine, analytic dissipative mode dynamics,
teleportation fidelity curves, and an independent truncated-Fock Lindblad
oracle, with a CSV-emitting batch CLI.
"""

__version__ = "0.1.0"
