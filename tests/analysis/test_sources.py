"""The shared source-corpus walker: a file a lint could not read is a
coded ERROR under that lint's own first code, never a silently smaller
corpus (synclint used to drop such modules)."""

from __future__ import annotations

import pytest

from repro.analysis import ERROR
from repro.analysis.lint import lint_runtime
from repro.analysis.perflint import lint_sources_perf
from repro.analysis.rescheck import lint_state_writes
from repro.analysis.rng_lint import lint_sources
from repro.analysis.servecheck import lint_serve
from repro.analysis.sources import walk_sources
from repro.analysis.synclint import lint_sync

SOURCE_LINTS = [
    (lint_sources, "DC001"),
    (lint_sources_perf, "PE001"),
    (lint_sync, "SY001"),
    (lint_state_writes, "RS001"),
    (lint_serve, "SV001"),
    (lint_runtime, "RT001"),
]


@pytest.mark.parametrize(
    "lint, code", SOURCE_LINTS, ids=[fn.__name__ for fn, _ in SOURCE_LINTS])
def test_unparseable_module_is_one_coded_error(lint, code, tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n    pass\n")
    target = broken if lint in (lint_serve, lint_runtime) else [broken]
    findings = lint(target)
    assert [(f.rule, f.severity) for f in findings] == [(code, ERROR)]
    assert str(broken) in findings[0].message


def test_walker_yields_sorted_parsed_modules(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("y = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "c.py").write_bytes(b"\xff\xfe not utf-8")
    findings = []
    walked = list(walk_sources([tmp_path, tmp_path / "a.py"], "XX000",
                               findings))
    assert [path.name for path, _ in walked] == ["a.py", "b.py", "a.py"]
    assert [f.rule for f in findings] == ["XX000"]
    assert findings[0].location == str(tmp_path / "sub" / "c.py")
