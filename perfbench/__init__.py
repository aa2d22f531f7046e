"""MPROS benchmark harness (see README.md)."""
