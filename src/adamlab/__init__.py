"""adamlab: a numerical laboratory for reshuffled Adam on finite sums whose
components satisfy a gradient-proportional smoothness condition.

Layers: landscapes (test objectives), optimizers (reshuffled Adam, plain and
clipped gradient descent), theory (closed-form constants, admissibility
thresholds, bound checks, the divergence construction), probes (empirical
smoothness / noise-envelope / lemma audits), harness + cli (experiments),
schema (config types and parameter ranges). Import names from their module:
the package root holds only the version.
"""

__version__ = "0.1.0"
