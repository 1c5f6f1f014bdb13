"""The flagship pipeline + the query/oracle registry behind ``__ray_entry__``."""

from .queries import ORACLES, QUERIES, flagship  # noqa: F401
