import pytest

from sdcam.cli import _openblas


@pytest.fixture(autouse=True)
def _blas_threads_restored():
    """Fail a test that changes OpenBLAS's thread count, which is
    process-wide: later tests would run on another count, and so depend on
    the order the tests run in."""
    fns = _openblas()
    blas = None if fns is None else fns[0]()
    yield
    assert (None if fns is None else fns[0]()) == blas, "the test changed OpenBLAS's thread count"
