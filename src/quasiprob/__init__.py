"""Quasi-probability distributions of 1-D quantum states: Wigner transforms,
characteristic functions, direction marginals and tomographic reconstruction,
Weyl quantization with the expectation-equality check, and Feynman's
spin-1/2 quasi-probability family."""
