"""regulab: vacuum energy densities for a 1+1D scalar field under point-split
and mode-sum regularization, and the order-of-limits behavior of their
regulators."""

__version__ = "0.1.0"
