"""The performance ledger: this repository's benchmark (see README.md)."""
