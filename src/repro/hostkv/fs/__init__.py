"""Extent-based file system substrate (ext4 stand-in)."""
