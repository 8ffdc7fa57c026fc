"""The project AST linter: every RP rule fires, suppression discipline holds.

Each rule is exercised with a minimal source snippet under a path that
puts it in the right scope (rules RP01, RP03 and RP05 are scoped to
layers of the ``src/repro`` tree). The capstone test lints the real
``src/`` tree and requires it clean — with zero suppression pragmas.
"""

from __future__ import annotations

import os

from repro.analysis import lint_paths, lint_source
from repro.analysis.lint import RP00, RP01, RP03, RP04, RP05, iter_python_files

CORE = "src/repro/core/rtree/node.py"
STORAGE = "src/repro/storage/buffer_pool.py"
SERVICE = "src/repro/service/engine.py"

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def rules_of(findings):
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# RP01: DiskManager bypasses
# ----------------------------------------------------------------------
def test_rp01_disk_read_outside_storage():
    findings = lint_source("node = self.ctx.disk.read(pid)\n", CORE)
    assert rules_of(findings) == {RP01}
    assert findings[0].page_id == 1  # line number


def test_rp01_disk_write_and_raw_pages():
    src = "ctx.disk.write(pid, node)\npayload = tree.ctx.disk._pages[pid]\n"
    findings = lint_source(src, SERVICE)
    assert [f.rule for f in findings] == [RP01, RP01]
    assert [f.page_id for f in findings] == [1, 2]


def test_rp01_allowed_inside_storage_and_for_peek():
    assert lint_source("payload = self.disk.read(pid)\n", STORAGE) == []
    assert lint_source("node = self.ctx.disk.peek(pid)\n", CORE) == []
    assert lint_source("node = self.ctx.pool.get(pid)\n", CORE) == []


# ----------------------------------------------------------------------
# RP03: counter field ownership
# ----------------------------------------------------------------------
def test_rp03_io_field_outside_storage():
    findings = lint_source("ctx.counters.disk_reads += 1\n", CORE)
    assert rules_of(findings) == {RP03}


def test_rp03_comparison_fields_allowed_in_core_only():
    src = "self.counters.segment_comps += 1\n"
    assert lint_source(src, CORE) == []
    assert rules_of(lint_source(src, SERVICE)) == {RP03}


def test_rp03_io_fields_allowed_in_storage():
    assert lint_source("self.counters.buffer_hits += 1\n", STORAGE) == []


def test_rp03_merge_is_the_sanctioned_path():
    assert lint_source("session.counters.merge(scratch)\n", SERVICE) == []


def test_rp03_counter_name_string_literal_flagged():
    src = 'out = {"segment_comps": delta.segment_comps}\n'
    assert rules_of(lint_source(src, SERVICE)) == {RP03}
    assert rules_of(lint_source('x["disk_accesses"]\n', CORE)) == {RP03}


def test_rp03_counter_name_allowed_in_metric_names_module():
    src = 'SEGMENT_COMPS = "segment_comps"\n'
    assert lint_source(src, "src/repro/metric_names.py") == []


def test_rp03_counter_name_in_docstring_is_exempt():
    src = (
        'def f():\n'
        '    """Reports disk_reads and the segment_comps counter."""\n'
        '    return 0\n'
    )
    assert lint_source(src, SERVICE) == []


def test_rp03_imported_constant_is_the_sanctioned_spelling():
    src = (
        "from repro.metric_names import SEGMENT_COMPS\n"
        "out = {SEGMENT_COMPS: delta.segment_comps}\n"
    )
    assert lint_source(src, SERVICE) == []


# ----------------------------------------------------------------------
# RP04: exception swallowing
# ----------------------------------------------------------------------
def test_rp04_bare_except():
    src = "try:\n    f()\nexcept:\n    handle()\n"
    assert rules_of(lint_source(src, SERVICE)) == {RP04}


def test_rp04_broad_except_pass():
    src = "try:\n    f()\nexcept Exception:\n    pass\n"
    assert rules_of(lint_source(src, SERVICE)) == {RP04}


def test_rp04_tolerates_narrow_or_handled():
    assert lint_source("try:\n    f()\nexcept ValueError:\n    pass\n", CORE) == []
    src = "try:\n    f()\nexcept Exception as exc:\n    log(exc)\n"
    assert lint_source(src, SERVICE) == []


# ----------------------------------------------------------------------
# RP05: float literals in grid-coordinate positions (core only)
# ----------------------------------------------------------------------
def test_rp05_float_in_locational_code_call():
    findings = lint_source("code = locational_code(1.0, by, depth, 10)\n", CORE)
    assert rules_of(findings) == {RP05}


def test_rp05_float_bitwise_operand():
    assert rules_of(lint_source("mask = x << 2.0\n", CORE)) == {RP05}


def test_rp05_scoped_to_core():
    src = "code = locational_code(1.0, 2, 3, 10)\n"
    assert lint_source(src, "src/repro/harness/experiment.py") == []
    assert lint_source("code = locational_code(bx, by, d, 10)\n", CORE) == []


# ----------------------------------------------------------------------
# Suppression pragmas
# ----------------------------------------------------------------------
def test_justified_disable_suppresses_exactly_that_rule():
    src = (
        "node = self.ctx.disk.read(pid)  "
        "# repro-lint: disable=RP01 -- cold-path stats, measured separately\n"
    )
    assert lint_source(src, CORE) == []


def test_unjustified_disable_is_rp00_and_does_not_suppress():
    src = "node = self.ctx.disk.read(pid)  # repro-lint: disable=RP01\n"
    findings = lint_source(src, CORE)
    assert rules_of(findings) == {RP00, RP01}


def test_disable_only_covers_named_rules():
    src = (
        "node = self.ctx.disk.read(pid)  "
        "# repro-lint: disable=RP04 -- wrong rule named on purpose\n"
    )
    assert rules_of(lint_source(src, SERVICE)) == {RP01}


def test_syntax_error_is_reported_not_raised():
    findings = lint_source("def broken(:\n", CORE)
    assert rules_of(findings) == {RP00}


# ----------------------------------------------------------------------
# The real tree
# ----------------------------------------------------------------------
def test_src_tree_lints_clean():
    assert lint_paths([REPO_SRC]) == []


def test_src_tree_suppression_discipline():
    """RP (measurement) suppressions stay at zero in src/.

    CC (concurrency) pragmas are permitted -- some blocking-under-lock
    is the design (the WAL's group-commit fsync) -- but every one must
    name only CC rules and carry a justification. The linter modules
    themselves are exempt: they document the pragma syntax.
    """
    from repro.analysis.lint import _DISABLE_RE

    for path in iter_python_files([REPO_SRC]):
        norm = path.replace(os.sep, "/")
        if norm.endswith(("repro/analysis/lint.py", "repro/analysis/concurrency.py")):
            continue
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if "repro-lint: disable" not in line:
                    continue
                m = _DISABLE_RE.search(line)
                assert m is not None, f"{path}:{lineno}: malformed pragma"
                rules = {r.strip() for r in m.group(1).split(",")}
                assert all(r.startswith("CC") for r in rules), (
                    f"{path}:{lineno}: suppresses {sorted(rules)}; only CC "
                    f"rules may be suppressed in src/"
                )
                assert m.group(2), f"{path}:{lineno}: pragma lacks justification"


def test_src_tree_concurrency_lints_clean():
    from repro.analysis import lint_concurrency_paths

    assert lint_concurrency_paths([REPO_SRC]) == []


def test_cli_lint_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    assert "clean: 0 findings" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text("try:\n    f()\nexcept:\n    pass\n")
    assert main(["lint", str(dirty)]) == 1
    assert "RP04" in capsys.readouterr().out

    assert main(["lint", str(tmp_path / "nope")]) == 2
