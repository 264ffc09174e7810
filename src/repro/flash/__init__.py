"""NAND flash substrate: geometry, timing, and the timed array."""
