"""Alpha."""
