import os
import time

import pytest

from quadcurl import checks, cli
from quadcurl.spaces import dual_basis, reference_spaces, span_VK


@pytest.fixture
def perturbed_vk():
    """VK with one quadratic term, 1e-3 x y^2 in the first component, added
    to spanning field 10: the DoFs stay unisolvent, but the curl of the span
    leaves WK."""
    span = span_VK()
    span[10, 0, 1, 2, 0] += 1e-3
    return dual_basis(span, reference_spaces()["VK"].dofs, "VK", 1)


@pytest.fixture(scope="session")
def battery():
    """One run of the exact-identity battery, shared by every test that reads
    it: (results, seconds it took)."""
    t0 = time.perf_counter()
    results = checks.run_battery()
    return results, time.perf_counter() - t0


@pytest.fixture(autouse=True)
def no_worker_left():
    """A study forks at most one worker (to solve one of two schemes, or
    the best approximations of one); every test must end with it
    reaped, whether the study succeeded or failed: no child process, running
    or exited, is left."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"child process {pid} left unreaped" if pid else
                "a child process left running")


@pytest.fixture(autouse=True)
def thread_variables_restored():
    """``cli.main`` with no thread setting writes the thread variables (half
    the usable cores), and ``cli._can_fork`` reads them: every test leaves
    them as it found them, so whether a later study forks does not depend
    on the order the tests run in."""
    saved = {var: os.environ.get(var) for var in cli.THREAD_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value
