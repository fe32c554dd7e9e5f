"""Benchmark for the skyline engine and its serving tier; see README.md."""
