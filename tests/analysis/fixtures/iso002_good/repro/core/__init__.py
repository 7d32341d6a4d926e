"""Fixture package."""
