"""The bit-identity digest (``benchmarks/digest.py``) runs cleanly."""

from __future__ import annotations

import importlib.util
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "benchmarks" / "digest.py"


def test_quick_digest_runs_and_no_line_raised(capsys):
    spec = importlib.util.spec_from_file_location("repro_digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)

    assert digest.main(["--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if " raised " in line]
    kinds = {line.split()[0] for line in lines}
    assert kinds == {
        "ptslu", "pdgetrf", "pcalu", "pdgesv", "pdgemm", "tslu", "calu", "key", "rows"
    }
    # Default-config store and factor keys, as pinned in tests/test_harness.py.
    assert ("key factor  "
            "82a8f3d05bd50b7545d3d96cc1bdb18769423b3e96daa906d6275293ee450d27") in lines
    # One line per configuration; no engine axis left to name.
    assert not [line for line in lines if "engine=" in line]
    assert len({line.split("  ")[0] for line in lines}) == len(lines)
