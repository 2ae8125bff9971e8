"""Exact symbolic engines for the renormalized higher powers of white noise,
the w-infinity Lie algebra, and the sandwich-operator realization check.

The package root exports nothing: import each name from its module, for
example ``rhpwn.lie.bracket`` or ``rhpwn.dsl.evaluate``."""
