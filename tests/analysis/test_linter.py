"""Unit tests for the repro.analysis invariant linter.

Each rule gets a violating fixture, a passing fixture, and a waived
fixture, per the acceptance criteria.  Paths are synthetic — the linter
scopes rules by the ``repro/<package>/`` component of the path string,
so no files need to exist on disk.
"""

import textwrap

from repro.analysis import RULES
from repro.analysis.linter import _FileContext, _normalize_select, _run


def lint_source(source: str, path: str, select=None):
    """Lint one file's source text; ``path`` determines the rule scope and
    ``select`` forces the given rules in scope (audit mode)."""
    return _run([_FileContext(path, source)], _normalize_select(select))


def _lint(src, path):
    return lint_source(textwrap.dedent(src), path)


def _codes(diags):
    return [d.code for d in diags]


# ---------------------------------------------------------------- accounting


VIOLATING_KERNEL = """
    import numpy as np

    def apply_mass(phi, w, u):
        return phi @ (w * u)
"""

CHARGED_KERNEL = """
    import numpy as np
    from ..linalg.counters import charge

    def apply_mass(phi, w, u):
        charge(2.0 * phi.size, 8.0 * phi.size, "mass")
        return phi @ (w * u)
"""

BLAS_KERNEL = """
    import numpy as np
    from ..linalg import blas

    def apply_mass(phi, w, u):
        out = np.empty(phi.shape[0])
        return blas.dgemv(1.0, phi, w * u, 0.0, out)
"""

WAIVED_KERNEL = """
    import numpy as np

    # repro: waive[accounting] one-time setup, not a hot path
    def tabulate(a, b):
        return np.einsum("ij,jk->ik", a, b)
"""


def test_accounting_violation_flagged_with_location():
    diags = _lint(VIOLATING_KERNEL, "src/repro/spectral/fake.py")
    assert _codes(diags) == ["REPRO001"]
    d = diags[0]
    assert d.rule == "accounting"
    assert d.line == 5  # the `phi @ (...)` line
    assert "apply_mass" in d.message
    assert d.format().startswith("src/repro/spectral/fake.py:5:")


def test_accounting_charge_call_passes():
    assert _lint(CHARGED_KERNEL, "src/repro/spectral/fake.py") == []


def test_accounting_blas_kernel_counts_as_charging():
    assert _lint(BLAS_KERNEL, "src/repro/spectral/fake.py") == []


def test_accounting_waived():
    assert _lint(WAIVED_KERNEL, "src/repro/spectral/fake.py") == []


def test_accounting_scope_is_hot_packages_only():
    # The same uncharged kernel in util/ or io/ is not flagged.
    assert _lint(VIOLATING_KERNEL, "src/repro/util/fake.py") == []
    assert _lint(VIOLATING_KERNEL, "src/repro/io/fake.py") == []


def test_accounting_matches_np_linalg_and_scipy():
    src = """
        import numpy as np
        import scipy.linalg as sla

        def solve_dense(a, b):
            return np.linalg.solve(a, b)

        def solve_chol(a, b):
            return sla.cho_solve(a, b)
    """
    diags = _lint(src, "src/repro/linalg/fake.py")
    assert _codes(diags) == ["REPRO001", "REPRO001"]


def test_accounting_ignores_exception_classes():
    # np.linalg.LinAlgError in an except clause is not compute.
    src = """
        import numpy as np

        def guard(a):
            try:
                return a.sum()
            except np.linalg.LinAlgError:
                return 0.0
    """
    assert _lint(src, "src/repro/linalg/fake.py") == []


# -------------------------------------------------------------- virtual-time


CLOCK_IN_RANK_FN = """
    import time

    def worker(comm, n):
        t0 = time.time()
        return t0
"""

CLOCK_IN_SOLVER = """
    import time

    def step(state):
        return time.perf_counter()
"""

VIRTUAL_CLOCK_OK = """
    def worker(comm, n):
        comm.compute(1.0e-3)
        return comm.wall
"""

CLOCK_WAIVED = """
    import time

    def step(state):
        return time.perf_counter()  # repro: waive[virtual-time] host-side harness timing
"""


def test_virtual_time_rank_function_flagged_anywhere():
    # Rank functions (first arg `comm`) are in scope even outside ns/parallel.
    diags = _lint(CLOCK_IN_RANK_FN, "src/repro/apps/fake.py")
    assert _codes(diags) == ["REPRO002"]
    assert diags[0].line == 5
    assert "time.time" in diags[0].message


def test_virtual_time_solver_package_in_scope():
    diags = _lint(CLOCK_IN_SOLVER, "src/repro/ns/fake.py")
    assert _codes(diags) == ["REPRO002"]


def test_virtual_time_clean_rank_fn_passes():
    assert _lint(VIRTUAL_CLOCK_OK, "src/repro/apps/fake.py") == []


def test_virtual_time_waived():
    assert _lint(CLOCK_WAIVED, "src/repro/ns/fake.py") == []


def test_virtual_time_threading_primitive_flagged():
    src = """
        import threading

        def step(state):
            lock = threading.Lock()
            return lock
    """
    diags = _lint(src, "src/repro/parallel/fake.py")
    assert _codes(diags) == ["REPRO002"]
    assert "threading.Lock" in diags[0].message


def test_virtual_time_file_waiver():
    src = """
        # repro: waive-file[virtual-time] this module is the substrate
        import threading

        def step(state):
            return threading.Lock()
    """
    assert _lint(src, "src/repro/parallel/fake.py") == []


def test_virtual_time_out_of_scope_module_ok():
    # benchkernels host-measurement code may use real clocks.
    assert _lint(CLOCK_IN_SOLVER, "src/repro/benchkernels/fake.py") == []


def test_virtual_time_datetime_and_module_level():
    src = """
        from datetime import datetime

        STAMP = datetime.now()
    """
    diags = _lint(src, "src/repro/ns/fake.py")
    assert _codes(diags) == ["REPRO002"]


# ----------------------------------------------------------------- raw-numpy


RAW_MATMUL_HOT = """
    import numpy as np

    def apply(a, x):
        return a @ x
"""

BLAS_HOT = """
    import numpy as np
    from ..linalg import blas

    def apply(a, x):
        y = np.empty(a.shape[0])
        return blas.dgemv(1.0, a, x, 0.0, y)
"""

RAW_MATMUL_WAIVED = """
    import numpy as np

    def apply(a, x):
        return a @ x  # repro: waive[raw-numpy] complex-valued, charged explicitly
"""


def test_raw_numpy_flagged_in_hot_package():
    diags = _lint(RAW_MATMUL_HOT, "src/repro/ns/fake.py")
    assert _codes(diags) == ["REPRO003"]
    assert diags[0].rule == "raw-numpy"


def test_raw_numpy_blas_passes():
    assert _lint(BLAS_HOT, "src/repro/ns/fake.py") == []


def test_raw_numpy_waived():
    assert _lint(RAW_MATMUL_WAIVED, "src/repro/ns/fake.py") == []


def test_raw_numpy_rank_context_in_scope_anywhere():
    diags = _lint(RAW_MATMUL_HOT.replace("def apply(a, x)", "def apply(comm, x)"),
                  "src/repro/apps/fake.py")
    assert _codes(diags) == ["REPRO003"]


def test_raw_numpy_not_flagged_in_linalg_substrate():
    # linalg/ is the counted substrate itself: accounting applies (and the
    # charge() call satisfies it), raw-numpy does not.
    src = """
        import numpy as np
        from .counters import charge

        def dgemv_like(a, x):
            charge(2.0 * a.size, 8.0 * a.size, "k")
            return a @ x
    """
    assert _lint(src, "src/repro/linalg/fake.py") == []


# ------------------------------------------------------------------- waivers


def test_waiver_unknown_rule_is_flagged():
    src = """
        import numpy as np

        def f(a, x):
            return a @ x  # repro: waive[no-such-rule] whatever
    """
    diags = _lint(src, "src/repro/ns/fake.py")
    codes = _codes(diags)
    assert "REPRO000" in codes  # the bad waiver itself
    assert "REPRO003" in codes  # and it does not silence the finding


def test_waiver_missing_reason_is_flagged():
    src = """
        import numpy as np

        def f(a, x):
            return a @ x  # repro: waive[raw-numpy]
    """
    diags = _lint(src, "src/repro/ns/fake.py")
    assert "REPRO000" in _codes(diags)


def test_rule_registry():
    assert set(RULES) == {
        "accounting",
        "virtual-time",
        "raw-numpy",
        "unseeded-rng",
        "wall-clock",
        "unordered-iteration",
    }
    codes = [code for code, _ in RULES.values()]
    assert len(set(codes)) == len(RULES)
    assert all(code.startswith("REPRO") for code in codes)


def test_syntax_error_reported_not_raised():
    diags = lint_source("def broken(:\n", "src/repro/ns/fake.py")
    assert len(diags) == 1
    assert diags[0].code == "REPRO000"


def test_nested_function_analyzed_separately():
    # The outer function charges; the nested closure does not and is
    # flagged on its own.
    src = """
        import numpy as np
        from .counters import charge

        def outer(a, x):
            charge(1.0, 8.0, "outer")

            def inner(b):
                return np.dot(b, b)

            return inner(a @ x)
    """
    diags = _lint(src, "src/repro/linalg/fake.py")
    assert _codes(diags) == ["REPRO001"]
    assert "inner" in diags[0].message


BATCHED_KERNEL = """
    import numpy as np
    from ..linalg import blas

    def apply_mass_batched(phi, w, u):
        out = np.empty(u.shape[:-1] + (phi.shape[0],))
        return blas.dgemv_batched(1.0, phi, w * u, 0.0, out)

    def build_ops(a, b, c):
        blas.dgemm_batched(1.0, a, b, 0.0, c, transb=True)
        return blas.ddot_batched(a[..., 0, :], b[..., 0, :])
"""

BATCHED_IMPORTED_KERNEL = """
    import numpy as np
    from ..linalg.blas import dgemm_batched

    def build_ops(a, b, c):
        return dgemm_batched(1.0, a, b, 0.0, c)
"""


def test_batched_kernels_count_as_charging_substrate():
    """The stacked kernels charge exactly like the per-element calls
    they replace, so they satisfy the accounting rule."""
    assert _lint(BATCHED_KERNEL, "src/repro/spectral/fake.py") == []
    assert _lint(BATCHED_IMPORTED_KERNEL, "src/repro/assembly/fake.py") == []


def test_batched_kernels_pass_raw_numpy_rule():
    assert _lint(BATCHED_KERNEL, "src/repro/ns/fake.py") == []


# ------------------------------------------------- determinism: unseeded-rng


def test_unseeded_rng_global_numpy_draw_flagged():
    src = """
        import numpy as np

        def noise(n):
            return np.random.randn(n)
    """
    diags = _lint(src, "src/repro/util/fake.py")
    assert _codes(diags) == ["REPRO004"]
    assert "np" not in diags[0].message or "numpy.random" in diags[0].message


def test_unseeded_rng_bare_default_rng_flagged():
    src = """
        import numpy as np

        def gen():
            return np.random.default_rng()
    """
    diags = _lint(src, "src/repro/ns/fake.py")
    assert _codes(diags) == ["REPRO004"]
    assert "without a seed" in diags[0].message


def test_unseeded_rng_seeded_default_rng_passes():
    src = """
        import numpy as np

        def gen():
            return np.random.default_rng(1999)
    """
    assert _lint(src, "src/repro/ns/fake.py") == []


def test_unseeded_rng_stdlib_random_flagged():
    src = """
        import random

        def pick(xs):
            return random.choice(xs)
    """
    diags = _lint(src, "src/repro/io/fake.py")
    assert _codes(diags) == ["REPRO004"]


def test_unseeded_rng_bound_generator_draw_passes():
    # Draws on a local Generator object are fine: the seed is explicit
    # at construction.
    src = """
        import numpy as np

        def noise(n):
            rng = np.random.default_rng(42)
            return rng.normal(size=n)
    """
    assert _lint(src, "src/repro/ns/fake.py") == []


def test_unseeded_rng_out_of_repro_tree_not_flagged_by_default():
    src = """
        import numpy as np

        def noise(n):
            return np.random.randn(n)
    """
    assert lint_source(textwrap.dedent(src), "tests/fake_test.py") == []


def test_select_forces_rule_scope():
    # The seed audit runs --select REPRO004 over tests/: the rule is
    # forced in scope outside the repro tree.
    src = """
        import numpy as np

        def noise(n):
            return np.random.randn(n)
    """
    diags = lint_source(
        textwrap.dedent(src), "tests/fake_test.py", select=["REPRO004"]
    )
    assert _codes(diags) == ["REPRO004"]


def test_select_unknown_rule_raises():
    import pytest

    with pytest.raises(ValueError, match="unknown rule"):
        lint_source("x = 1\n", "src/repro/ns/fake.py", select=["REPRO999"])


# --------------------------------------------------- determinism: wall-clock


def test_wall_clock_flagged_in_numeric_core():
    src = """
        import time

        def assemble(a):
            t0 = time.perf_counter()
            return a, t0
    """
    diags = _lint(src, "src/repro/assembly/fake.py")
    assert _codes(diags) == ["REPRO005"]
    assert diags[0].rule == "wall-clock"


def test_wall_clock_defers_to_virtual_time_in_parallel():
    # In ns/parallel the stricter REPRO002 owns clock reads.
    src = """
        import time

        def step(state):
            return time.perf_counter()
    """
    diags = _lint(src, "src/repro/parallel/fake.py")
    assert _codes(diags) == ["REPRO002"]


def test_wall_clock_not_flagged_in_util():
    # util/ hosts the sanctioned StageTimer.
    src = """
        import time

        def stamp():
            return time.perf_counter()
    """
    assert _lint(src, "src/repro/util/fake.py") == []


def test_wall_clock_waived():
    src = """
        import time

        def assemble(a):
            t0 = time.perf_counter()  # repro: waive[wall-clock] host-side progress meter
            return a, t0
    """
    assert _lint(src, "src/repro/assembly/fake.py") == []


# ------------------------------------------ determinism: unordered-iteration


RANK_KEYED_LOOP = """
    def exchange(comm, values):
        inbox = {}
        for peer in range(comm.size):
            if peer != comm.rank:
                inbox[peer] = comm.recv(peer, tag=3)
        total = 0.0
        for peer, val in inbox.items():
            total += val
        return total
"""


def test_unordered_iteration_rank_keyed_dict_flagged():
    diags = _lint(RANK_KEYED_LOOP, "src/repro/parallel/fake.py")
    codes = _codes(diags)
    assert "REPRO006" in codes
    d = next(d for d in diags if d.code == "REPRO006")
    assert "inbox" in d.message


def test_unordered_iteration_sorted_wrapper_passes():
    src = RANK_KEYED_LOOP.replace("inbox.items()", "sorted(inbox.items())")
    diags = _lint(src, "src/repro/parallel/fake.py")
    assert "REPRO006" not in _codes(diags)


def test_unordered_iteration_set_flagged():
    src = """
        def merge(comm, ids):
            out = []
            for i in {3, 1, 2}:
                out.append(i)
            return out
    """
    diags = _lint(src, "src/repro/fourier/fake.py")
    assert _codes(diags) == ["REPRO006"]
    assert "set" in diags[0].message


def test_unordered_iteration_sum_over_set_exempt():
    # Order-insensitive reductions over sets are fine.
    src = """
        def total(comm, ids):
            return sum(i for i in {3, 1, 2})
    """
    assert _lint(src, "src/repro/fourier/fake.py") == []


def test_unordered_iteration_plain_dict_not_flagged():
    # Dicts not keyed by rank iterate in insertion order — deterministic.
    src = """
        def tally(comm, words):
            counts = {}
            for w in words:
                counts[w] = counts.get(w, 0) + 1
            return [counts[w] for w in counts]
    """
    assert _lint(src, "src/repro/parallel/fake.py") == []


def test_unordered_iteration_out_of_scope_package():
    src = """
        def pick(ids):
            return [i for i in {3, 1, 2}]
    """
    assert _lint(src, "src/repro/util/fake.py") == []


def test_unordered_iteration_waived():
    src = RANK_KEYED_LOOP.replace(
        "for peer, val in inbox.items():",
        "for peer, val in inbox.items():  # repro: waive[unordered-iteration] summation is commutative here",
    )
    diags = _lint(src, "src/repro/parallel/fake.py")
    assert "REPRO006" not in _codes(diags)


# --------------------------------------- waiver matching (multi-line, decorated)


def test_waiver_on_any_line_of_multiline_statement():
    # The violating call spans lines 5-8; the waiver sits on the closing
    # line, far from the first line the diagnostic anchors to.
    src = """
        import numpy as np

        def tabulate(a, b):
            return np.einsum(
                "ij,jk->ik",
                a,
                b,
            )  # repro: waive[accounting] one-time setup table
    """
    assert _lint(src, "src/repro/spectral/fake.py") == []


def test_waiver_above_decorated_def():
    src = """
        import functools
        import numpy as np

        # repro: waive[accounting] cached one-time table
        @functools.lru_cache(maxsize=None)
        def tabulate(a, b):
            return np.einsum("ij,jk->ik", a, b)
    """
    assert _lint(src, "src/repro/spectral/fake.py") == []


def test_waiver_between_decorator_and_def():
    src = """
        import functools
        import numpy as np

        @functools.lru_cache(maxsize=None)
        # repro: waive[accounting] cached one-time table
        def tabulate(a, b):
            return np.einsum("ij,jk->ik", a, b)
    """
    assert _lint(src, "src/repro/spectral/fake.py") == []


def test_waiver_accepts_rule_code_token():
    src = """
        import numpy as np

        def f(a, x):
            return a @ x  # repro: waive[REPRO003] complex-valued, charged explicitly
    """
    diags = _lint(src, "src/repro/ns/fake.py")
    assert "REPRO003" not in _codes(diags)


def test_stale_waiver_reported():
    src = """
        def f(a, x):
            return a + x  # repro: waive[raw-numpy] there is nothing to waive
    """
    diags = _lint(src, "src/repro/ns/fake.py")
    assert _codes(diags) == ["REPRO000"]
    assert "stale" in diags[0].message


def test_stale_waiver_not_reported_under_select():
    # A partial run can't judge staleness.
    src = """
        def f(a, x):
            return a + x  # repro: waive[raw-numpy] there is nothing to waive
    """
    diags = lint_source(
        textwrap.dedent(src), "src/repro/ns/fake.py", select=["unseeded-rng"]
    )
    assert diags == []
