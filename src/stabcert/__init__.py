"""Stability certificates for first-order optimizers.

Three routes to the same question, does replacing one training example
move the learned parameters:

- a direct quadratic-Lyapunov construction for the sector-tuned
  Nesterov method (lyapunov),
- an automated sector-IQC linear matrix inequality decided by a small
  barrier interior-point solver with dual witnesses (iqc, sdp),
- coupled-run experiments measuring the gap empirically (data, losses,
  simulate).
"""

__version__ = "0.1.0"

from .optimizers import (  # noqa: F401
    HeavyBall,
    NagSmoothQuadratic,
    NagStandard,
    SectorBounds,
    Sgd,
    TripleMomentum,
    TwoStep,
    theta_of,
)
