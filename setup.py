"""Packaging for the unroll-and-squash reproduction.

numpy is a hard dependency: the scheduler core
(:mod:`repro.hw.sched_kernel`, the only implementation of the II search)
runs its placement/probe loops over dense arrays, the workloads seed
their input arrays from it, and the simulators check values against
numpy references.
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
