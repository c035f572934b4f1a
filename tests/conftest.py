import pytest

from dcn2 import runtime


@pytest.fixture()
def kernel_threads(monkeypatch):
    """`kernel_threads(n)` sets the process-wide kernel thread count for one
    test; None makes the next `runtime.num_threads()` read DCN2_THREADS
    again. The count in force before the test is restored after it.
    """

    def set_threads(n):
        monkeypatch.setattr(runtime, "_num_threads", n)

    return set_threads
