"""References the tests hold the package to: the scalar chain, and independent oracles."""
