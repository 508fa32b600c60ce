"""gmewit — multiqubit entanglement witnesses with imprecision-corrected
separability bounds, fidelity estimation and noise-robustness analysis.
Import from the submodules: a command then loads only what it uses."""

__version__ = "0.1.0"


def fixture_path(name: str):
    """Filesystem path of a bundled fixture file."""
    from importlib import resources
    return resources.files("gmewit.fixtures").joinpath(name)
