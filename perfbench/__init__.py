"""Pipeline benchmark for latticecell; see README.md and run.py."""
