"""Molecular integrals over contracted cartesian Gaussians.

Two implementations of the McMurchie–Davidson scheme:

* :mod:`repro.integrals.mcmurchie` — scalar reference recursions, any
  angular momentum. Used for validation only.
* :mod:`repro.integrals.engine` — vectorized engine used by the SCF and
  DFPT code: one-electron matrices, Schwarz-screened ERI tensor, dipole
  integrals, and first-derivative integrals for analytic gradients.

Schwarz screening uses the Cauchy–Schwarz bound
``|(ab|cd)| <= sqrt((ab|ab)) * sqrt((cd|cd))`` to skip shell-pair-block
combinations whose bound falls below ``IntegralEngine.schwarz_cutoff``;
skipped integrals are set to zero, so every ERI element is exact or
bounded in magnitude by the cutoff. The engine default is 0 (screening
off); :class:`repro.scf.rhf.RHF` enables it at 1e-12, far below SCF
convergence noise. Counters in ``IntegralEngine.screen_stats`` record
how many pair-block combinations were evaluated vs. screened.

Both implementations produce identical numbers (tested against each
other and against literature SCF energies).
"""

from repro.integrals.engine import IntegralEngine

__all__ = ["IntegralEngine"]
