"""The bit-identity digest (``benchmarks/digest.py``) runs and polices itself."""

from __future__ import annotations

import importlib.util
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "benchmarks" / "digest.py"


def test_quick_digest_runs_and_event_lines_match_their_coroutine_twins(capsys):
    spec = importlib.util.spec_from_file_location("repro_digest", DIGEST)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)

    assert digest.main(["--quick"]) == 0  # non-zero: an event/coroutine pair differs
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "pairs agree" in err
    assert not [line for line in lines if " raised " in line]
    kinds = {line.split()[0] for line in lines}
    assert kinds == {"ptslu", "pdgetrf", "pcalu", "pdgesv", "pdgemm", "tslu", "calu", "key"}
    # Default-config store and factor keys, as pinned in tests/test_harness.py.
    assert ("key factor engine=coroutine  "
            "82a8f3d05bd50b7545d3d96cc1bdb18769423b3e96daa906d6275293ee450d27") in lines
    # One line per configuration, each simulated one under both engines.
    simulated = [line for line in lines if " engine=" in line and not line.startswith("key")]
    assert len(simulated) % 2 == 0
    assert len({line.split("  ")[0] for line in lines}) == len(lines)
