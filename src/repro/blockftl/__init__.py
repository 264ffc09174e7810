"""Block-SSD firmware personality (page-mapped FTL baseline)."""
