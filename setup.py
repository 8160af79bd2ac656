"""Packaging for the ``repro`` package under ``src/``.

``pip install -e .`` requires the ``wheel`` package; on offline machines
without it, ``python setup.py develop`` (or adding ``src`` to a ``.pth``
file, or ``PYTHONPATH=src``) makes the package importable equivalently.
All packaging configuration is in this file.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.experiments": ["fig_calibration.json"]},
    install_requires=["numpy"],
)
