"""Paper-scale cases are collected everywhere but run only when asked for
with ``-m paper_scale``: generating the paper's full-size inputs takes a
few seconds each, which the default suite does not spend."""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "paper_scale: paper-size (scale 1) dataset cases"
    )


def pytest_collection_modifyitems(config, items):
    if "paper_scale" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="paper scale: run with -m paper_scale")
    for item in items:
        if "paper_scale" in item.keywords:
            item.add_marker(skip)
