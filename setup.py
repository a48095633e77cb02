"""Setup shim for editable installs on environments without the wheel package."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Ivy: Safety Verification by Interactive "
        "Generalization' (PLDI 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.protocols": ["*.rml"]},
    python_requires=">=3.10",
)
