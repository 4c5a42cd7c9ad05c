"""Legacy setup shim.

The sandbox has setuptools 65 without the ``wheel`` package, so PEP 517
editable installs fail with ``invalid command 'bdist_wheel'``.  Keeping a
``setup.py`` lets ``pip install -e .`` fall back to the classic
``setup.py develop`` code path, which needs no wheel support.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.10.0",
    description="E-AFE: efficient automated feature engineering (ICDE 2023 reproduction)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "networkx"],
)
