"""Deterministic NAND fault injection and the reliability model."""
