"""perfbench: host time per simulated request (see README.md)."""
