"""Closed-form training and sampling dynamics of linear diffusion denoisers.

The package solves, in closed form, how linear / deep-linear /
convolutional denoisers evolve under full-batch gradient flow, what
distribution the probability-flow ODE generates at every training time,
and validates every closed form against independent brute-force oracles.

Import each name from the one module whose ``__all__`` lists it:
``dynamics``, ``convolution``, ``flow_matching``, ``sampler``,
``analysis``, ``metrics``, ``gaussian``, ``special``, ``oracle``,
``integrate``, ``experiment`` or ``validation`` (``cli`` is the command
line).  Importing the package loads none of them.
"""

__version__ = "0.1.0"
