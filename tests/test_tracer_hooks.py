"""The traced benchmark run wraps iondpt functions by name; a refactor that
drops or renames one of them must fail here rather than in the benchmark."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture
def spans():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans as module
        yield module
    finally:
        sys.path.remove(PERFBENCH)


def test_install_and_uninstall(spans, tmp_path):
    tracer = spans.install(str(tmp_path))
    tracer.uninstall()
