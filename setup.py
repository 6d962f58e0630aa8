"""Setup shim for installers without PEP 660 editable installs; every
setting is declared in ``pyproject.toml``."""
from setuptools import setup

setup()
