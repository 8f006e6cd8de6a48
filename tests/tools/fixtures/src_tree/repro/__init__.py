"""Fixture package."""

__all__ = []
