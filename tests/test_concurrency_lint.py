"""The lock-discipline pass: every CC rule fires, and src/ stays clean.

Each rule gets a minimal synthetic violation (asserting the exact rule
id and line) plus a near-miss counterexample that must stay clean --
the value of a concurrency linter is zero only if its rules are sharp
enough to not cry wolf on the sanctioned patterns.
"""

from __future__ import annotations

import textwrap

from repro.analysis.concurrency import (
    CC01,
    CC02,
    CC03,
    CC04,
    CC05,
    lint_concurrency_source,
    lint_concurrency_sources,
)

PATH = "src/repro/fake/mod.py"


def lint(src: str, path: str = PATH):
    return lint_concurrency_source(textwrap.dedent(src), path)


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# CC01: lock-order inversion
# ----------------------------------------------------------------------
AB_BA = """
    import threading

    class Pair:
        def __init__(self):
            self._a_lock = threading.Lock()
            self._b_lock = threading.Lock()

        def ab(self):
            with self._a_lock:
                with self._b_lock:
                    pass

        def ba(self):
            with self._b_lock:
                with self._a_lock:
                    pass
"""


def test_cc01_ab_ba_inversion():
    findings = lint(AB_BA)
    assert [f.rule for f in findings] == [CC01]
    # Reported once (one cycle), anchored at an edge inside a method.
    assert findings[0].page_id in (11, 16)
    assert "Pair._a_lock" in findings[0].detail
    assert "Pair._b_lock" in findings[0].detail


def test_cc01_interprocedural_inversion():
    # ab() nests directly; ba() holds B and *calls* a helper that takes
    # A. The cycle only exists through the call graph.
    findings = lint(
        """
        import threading

        class Pair:
            def __init__(self):
                self._a_lock = threading.Lock()
                self._b_lock = threading.Lock()

            def ab(self):
                with self._a_lock:
                    with self._b_lock:
                        pass

            def ba(self):
                with self._b_lock:
                    self.take_a()

            def take_a(self):
                with self._a_lock:
                    pass
        """
    )
    assert rules_of(findings) == {CC01}


def test_cc01_consistent_order_is_clean():
    # Same two locks, always A before B: a total order, no cycle.
    assert (
        lint(
            """
            import threading

            class Pair:
                def __init__(self):
                    self._a_lock = threading.Lock()
                    self._b_lock = threading.Lock()

                def ab(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass

                def ab_again(self):
                    with self._a_lock:
                        with self._b_lock:
                            pass
            """
        )
        == []
    )


# ----------------------------------------------------------------------
# CC02: blocking call under a lock
# ----------------------------------------------------------------------
def test_cc02_fsync_under_lock():
    findings = lint(
        """
        import os, threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._fh = open("x", "wb")

            def flush(self):
                with self._lock:
                    os.fsync(self._fh.fileno())
        """
    )
    assert [f.rule for f in findings] == [CC02]
    assert findings[0].page_id == 11
    assert "Store._lock" in findings[0].detail


def test_cc02_interprocedural_fsync():
    # The fsync lives in a helper; the lock is held by the caller. The
    # entry-lockset inference must connect them.
    findings = lint(
        """
        import os, threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._fh = open("x", "wb")

            def flush(self):
                with self._lock:
                    self._sync()

            def _sync(self):
                os.fsync(self._fh.fileno())
        """
    )
    assert [f.rule for f in findings] == [CC02]
    assert findings[0].page_id == 14  # the fsync line, not the call site


def test_cc02_socket_send_under_lock():
    findings = lint(
        """
        import threading

        class Client:
            def __init__(self, sock):
                self._lock = threading.Lock()
                self._sock = sock

            def send(self, data):
                with self._lock:
                    self._sock.sendall(data)
        """
    )
    assert rules_of(findings) == {CC02}


def test_cc02_fsync_outside_lock_is_clean():
    assert (
        lint(
            """
            import os, threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._fh = open("x", "wb")

                def flush(self):
                    with self._lock:
                        data = self._drain()
                    os.fsync(self._fh.fileno())
            """
        )
        == []
    )


# ----------------------------------------------------------------------
# CC03: field mutated outside the class's lock
# ----------------------------------------------------------------------
def test_cc03_mutation_outside_lock():
    findings = lint(
        """
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self.value = 0

            def bump(self):
                with self._lock:
                    self.value += 1

            def reset(self):
                self.value = 0
        """
    )
    assert [f.rule for f in findings] == [CC03]
    assert findings[0].page_id == 14  # the unprotected write in reset()
    assert "self.value" in findings[0].detail


def test_cc03_all_writes_locked_is_clean():
    assert (
        lint(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def bump(self):
                    with self._lock:
                        self.value += 1

                def reset(self):
                    with self._lock:
                        self.value = 0
            """
        )
        == []
    )


def test_cc03_single_writer_method_is_clean():
    # Only one method (besides __init__) writes the field: no cross-
    # method race to report, even though the write is unlocked.
    assert (
        lint(
            """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def reset(self):
                    self.value = 0

                def read(self):
                    with self._lock:
                        return self.value
            """
        )
        == []
    )


# ----------------------------------------------------------------------
# CC04: manual acquire/release
# ----------------------------------------------------------------------
def test_cc04_leaked_acquire_and_bare_release():
    findings = lint(
        """
        import threading

        _io_lock = threading.Lock()

        def leaky():
            _io_lock.acquire()
            do_stuff()
            _io_lock.release()
        """
    )
    assert [f.rule for f in findings] == [CC04, CC04]
    assert [f.page_id for f in findings] == [7, 9]


def test_cc04_release_in_finally_still_flags_acquire_only():
    findings = lint(
        """
        import threading

        _io_lock = threading.Lock()

        def careful():
            _io_lock.acquire()
            try:
                do_stuff()
            finally:
                _io_lock.release()
        """
    )
    # The release is sanctioned (finally); the bare acquire still is
    # not -- `with` is strictly safer and is what the codebase uses.
    assert [f.rule for f in findings] == [CC04]
    assert findings[0].page_id == 7


LATCH_HOLDER = """
    class Engine:
        def run(self):
            self.latch.acquire()
            do_work()
            self.latch.release()
    """


def test_cc04_bare_latch_acquire_release():
    findings = lint(LATCH_HOLDER)
    assert [f.rule for f in findings] == [CC04, CC04]
    assert [f.page_id for f in findings] == [4, 6]


def test_cc04_latch_with_block_is_clean():
    src = """
        class Engine:
            def run(self):
                with self.latch:
                    do_work()
        """
    assert lint(src) == []


def test_cc04_exempts_the_latch_module_itself():
    assert lint(LATCH_HOLDER, "src/repro/storage/latch.py") == []


def test_cc04_with_block_is_clean():
    assert (
        lint(
            """
            import threading

            _io_lock = threading.Lock()

            def fine():
                with _io_lock:
                    do_stuff()
            """
        )
        == []
    )


# ----------------------------------------------------------------------
# CC05: unowned threads
# ----------------------------------------------------------------------
def test_cc05_unowned_thread():
    findings = lint(
        """
        import threading

        def spawn():
            t = threading.Thread(target=work)
            t.start()
            return t
        """
    )
    assert [f.rule for f in findings] == [CC05]
    assert findings[0].page_id == 5


def test_cc05_daemon_thread_is_clean():
    assert (
        lint(
            """
            import threading

            def spawn():
                t = threading.Thread(target=work, daemon=True)
                t.start()
                return t
            """
        )
        == []
    )


def test_cc05_joined_thread_is_clean():
    assert (
        lint(
            """
            import threading

            def run():
                t = threading.Thread(target=work)
                t.start()
                t.join()
            """
        )
        == []
    )


def test_cc05_join_elsewhere_in_class_is_clean():
    # Start in one method, join in another (the server shape).
    assert (
        lint(
            """
            import threading

            class Owner:
                def start(self):
                    self._thread = threading.Thread(target=work)
                    self._thread.start()

                def stop(self):
                    self._thread.join()
            """
        )
        == []
    )


# ----------------------------------------------------------------------
# Suppression discipline
# ----------------------------------------------------------------------
def test_justified_pragma_suppresses():
    findings = lint(
        """
        import os, threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._fh = open("x", "wb")

            def flush(self):
                with self._lock:
                    os.fsync(self._fh.fileno())  # repro-lint: disable=CC02 -- group commit rides this fsync
        """
    )
    assert findings == []


def test_unjustified_pragma_is_reported():
    findings = lint(
        """
        import os, threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._fh = open("x", "wb")

            def flush(self):
                with self._lock:
                    os.fsync(self._fh.fileno())  # repro-lint: disable=CC02
        """
    )
    # The pragma without a justification is itself a finding (RP00) and
    # does NOT suppress the CC02 underneath.
    assert rules_of(findings) == {"RP00", CC02}


# ----------------------------------------------------------------------
# Whole-program behavior
# ----------------------------------------------------------------------
def test_cross_file_analysis_sees_one_program():
    # The inversion spans two files: each is clean alone, the program
    # is not.
    a = textwrap.dedent(
        """
        import threading

        class Pair:
            def __init__(self):
                self._a_lock = threading.Lock()
                self._b_lock = threading.Lock()

            def ab(self):
                with self._a_lock:
                    with self._b_lock:
                        pass
        """
    )
    b = textwrap.dedent(
        """
        def cross(pair):
            with pair._b_lock:
                with pair._a_lock:
                    pass
        """
    )
    assert lint_concurrency_sources({"src/a.py": a}) == []
    assert lint_concurrency_sources({"src/b.py": b}) == []
    both = lint_concurrency_sources({"src/a.py": a, "src/b.py": b})
    assert rules_of(both) == {CC01}


def test_syntax_error_is_reported_not_raised():
    findings = lint("def broken(:\n")
    assert rules_of(findings) == {"RP00"}


def test_cli_concurrency_flag(tmp_path, capsys):
    """``lint`` runs the CC pass beside the RP rules; it has no flag."""
    from repro.__main__ import main

    dirty = tmp_path / "dirty.py"
    dirty.write_text(
        textwrap.dedent(
            """
            import threading

            _lock = threading.Lock()

            def leaky():
                _lock.acquire()
            """
        )
    )
    assert main(["lint", str(dirty)]) == 1
    assert "CC04" in capsys.readouterr().out

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    out = capsys.readouterr().out
    assert "clean: 0 findings" in out


def test_cli_reports_a_finding_both_passes_make_once(tmp_path, capsys):
    from repro.__main__ import main

    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert main(["lint", str(broken)]) == 1
    out = capsys.readouterr().out
    assert out.count("RP00") == 1 and "1 finding(s)" in out
