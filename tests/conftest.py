import numpy as np

from bfsyz.exactalg import KERNEL_BACKEND


def pytest_report_header(config):
    """Name the elimination kernel the run used, and the arithmetic its twin takes."""
    return (
        f"bfsyz kernel backend: {KERNEL_BACKEND}; "
        f"np.longdouble mantissa bits: {np.finfo(np.longdouble).nmant}"
    )
