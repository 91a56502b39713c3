"""cyanine: a compiler front-end and closure-compiling interpreter for a
core subset of the Cyan prototype-based object-oriented language."""

__version__ = "0.1.0"
