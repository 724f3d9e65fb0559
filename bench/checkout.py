"""Locate the package source of the checkout this benchmark lives in."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on the import path, or exit
    nonzero when there is no package source to benchmark."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dynkin", "__init__.py")):
        sys.exit(f"bench: no package source at {src}")
    sys.path.insert(0, src)
