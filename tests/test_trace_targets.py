"""The benchmark's tracer must still reach every function it names.

``benchmarks/spans.Tracer`` wraps public functions from outside; a refactor
that renames a target, or keeps a reference the wrapper cannot replace,
would silently drop that layer from the traced benchmark.  The check runs
in a fresh interpreter, because the test modules hold their own imported
references to the targets.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
tracer = spans.Tracer().install()
print(json.dumps({"missing": tracer.missing, "unseen": tracer.unseen(),
                  "wrapped": len(tracer._originals)}))
"""


def test_every_tracer_target_resolves_and_is_wrapped():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", PROBE, str(ROOT / "benchmarks")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["missing"] == []
    assert result["unseen"] == []
    assert result["wrapped"] > 0
