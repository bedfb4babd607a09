"""Desk-scale simulator of social caching in a DHT-backed social network."""

__version__ = "0.1.0"
