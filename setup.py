"""Packaging for the unroll-and-squash reproduction.

numpy is a dependency of the code that runs programs: the IR
interpreter's array storage (functional verification and profiling),
the VLIW value replay, and the workloads' reference models import it
where they use it.  Compiling designs (the CLI's explore and tables
commands, the ``.lang`` front end, analysis, scheduling, the engine
and its reports) imports no numpy.
"""
from setuptools import find_packages, setup

setup(
    name="repro-unroll-and-squash",
    version="0.7.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
