"""The paper's deliverable: characterization harness and analytical model."""
