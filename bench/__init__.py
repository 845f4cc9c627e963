"""The repository benchmark: ``python3 -m bench`` (see bench/README.md)."""
