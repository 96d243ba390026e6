import pytest

from sdcam.problems import qcqp


@pytest.fixture(autouse=True)
def _hold_free_and_blas_threads_restored():
    """Fail a test that leaves ``qcqp._hold`` held or OpenBLAS's thread count
    changed: a held ``_hold`` sends every later generation to the calling
    thread alone, and a changed count holds later tests to another count, so
    they would depend on the order the tests run in."""
    fns = qcqp._openblas()
    blas = None if fns is None else fns[0]()
    yield
    assert qcqp._hold.acquire(blocking=False), "the test left qcqp._hold held"
    qcqp._hold.release()
    assert (None if fns is None else fns[0]()) == blas, "the test changed OpenBLAS's thread count"
