import pytest

from sdcam.problems import qcqp


@pytest.fixture(autouse=True)
def _lane_free_and_blas_threads_restored():
    """Fail a test that leaves the QCQP lane held or OpenBLAS's thread count
    changed: a held lane sends every later generation to the calling thread
    alone, and a changed count holds later tests to another count, so they
    would depend on the order the tests run in."""
    fns = qcqp._openblas()
    blas = None if fns is None else fns[0]()
    yield
    assert qcqp._lane.free.acquire(blocking=False), "the test left the QCQP lane held"
    qcqp._lane.free.release()
    assert (None if fns is None else fns[0]()) == blas, "the test changed OpenBLAS's thread count"
