"""gensob: weighted spectral Sobolev norms, boundary white noise, and a
spectral Dirichlet solver on the unit disk."""

__version__ = "0.1.0"  # the one place it is written: pyproject.toml and reports read it
