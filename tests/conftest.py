import numpy as np


def pytest_report_header(config):
    """Name the arithmetic the mod-p kernel's dense loop takes on this platform."""
    return f"np.longdouble mantissa bits: {np.finfo(np.longdouble).nmant}"
