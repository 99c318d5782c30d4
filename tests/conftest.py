"""Test-session setup: the report header names the BLAS kernel the run used.

The golden pins and the supernet's layout tests hold bit for bit on one
OpenBLAS kernel. numpy's wheels bundle an OpenBLAS built for several CPUs
that picks its kernel when it loads, and ``numpy.show_config()`` prints only
the build baseline, so the header asks the library itself. A quiet (``-q``)
run, which prints no header, gives the same line after its results.
"""

import ctypes
import glob
import os

import numpy


def _openblas_config() -> str:
    """The runtime configuration of numpy's bundled OpenBLAS, or ``no bundled OpenBLAS``."""
    libs = glob.glob(
        os.path.join(
            os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*.so"
        )
    )
    if not libs:
        return "no bundled OpenBLAS"
    config = ctypes.CDLL(libs[0]).scipy_openblas_get_config64_
    config.argtypes = []
    config.restype = ctypes.c_char_p
    return config().decode()


def pytest_report_header(config):
    return _openblas_config()


def pytest_terminal_summary(terminalreporter, config):
    # ``-q`` hides the header: a quiet run names the kernel after its results instead.
    if config.option.verbose < 0:
        terminalreporter.write_line(_openblas_config())
