"""Semi-supervised flood-scene classification with unstructured and structured EM.

The modules are the API; the package root holds only the version.
"""

__version__ = "0.1.0"
