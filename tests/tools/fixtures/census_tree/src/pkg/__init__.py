"""Fixture package: re-exports do not count as uses."""

from pkg.mod import Kept, only_tested, used

__all__ = ["Kept", "only_tested", "used"]
