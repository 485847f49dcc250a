"""Frozen reference implementations that tests compare production engines against."""
