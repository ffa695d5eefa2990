"""The applications: Tables 1-3 and Figures 9-16.

Each application is its own module (``python -m repro.apps.serial_bluff``,
``from repro.apps import serial_bluff``); the package imports none of
them, so running one as ``__main__`` finds it not yet loaded.
"""

from .pricing import STAGE_KINDS, price_stages, total_time

__all__ = ["STAGE_KINDS", "price_stages", "total_time"]
