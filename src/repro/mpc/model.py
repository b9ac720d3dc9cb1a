"""MPC(eps) model parameters (Section 2.1).

:class:`MPCConfig` bundles the three knobs of the model -- the number
of workers ``p``, the space exponent ``eps``, and the constant ``c`` in
the capacity bound ``c * N / p^{1-eps}`` -- and computes the per-round
per-worker receive capacity for a given input size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class MPCConfig:
    """Parameters of an MPC(eps) execution.

    Attributes:
        p: number of workers (>= 1).
        eps: space exponent in ``[0, 1]``; ``eps = 0`` is the basic
            MPC model (no replication), ``eps = 1`` is degenerate
            (each worker may receive the entire input).
        c: the hidden constant of the ``O(N / p^{1-eps})`` capacity.
    """

    p: int
    eps: Fraction = Fraction(0)
    c: float = 2.0

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"need p >= 1 workers, got {self.p}")
        eps = Fraction(self.eps)
        if not 0 <= eps <= 1:
            raise ValueError(f"space exponent must be in [0, 1], got {eps}")
        object.__setattr__(self, "eps", eps)
        if self.c <= 0:
            raise ValueError(f"capacity constant must be > 0, got {self.c}")

    def capacity_bits(self, input_bits: int) -> float:
        """Per-worker per-round receive budget ``c * N / p^{1-eps}``."""
        if input_bits < 0:
            raise ValueError(f"input size must be >= 0, got {input_bits}")
        exponent = float(1 - self.eps)
        return self.c * input_bits / (self.p ** exponent)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"MPC(eps={self.eps}) with p={self.p}, capacity "
            f"{self.c}*N/p^{float(1 - self.eps):.3g}"
        )
