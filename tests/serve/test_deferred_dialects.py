"""A fresh service handles lowered MLP modules: their ``net.requantize`` ops
parse without the caller importing the module that defines them."""

import json
import os
import subprocess
import sys
import textwrap

from repro.passes import ConvertLinalgToAccfgPass
from repro.workloads.network import build_mlp

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

# Runs in a fresh interpreter that never imports repro.workloads.network.
CHILD = textwrap.dedent(
    """
    import json, sys
    from repro.serve import CompileService
    assert "repro.workloads.network" not in sys.modules
    service = CompileService()
    text = sys.stdin.read()
    print(json.dumps([
        service.handle({"op": op, "module": text, "pipeline": "full"})
        for op in ("compile", "simulate", "cost", "lint")
    ]))
    """
)


def lowered_mlp_text() -> str:
    workload = build_mlp([8, 16, 8])
    ConvertLinalgToAccfgPass().apply(workload.module)
    text = str(workload.module)
    assert "net.requantize" in text
    return text


def test_fresh_service_handles_requantize_modules():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_CACHE_DIR", None)
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=lowered_mlp_text(),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    responses = json.loads(child.stdout)
    for response in responses:
        assert response["ok"], response
    simulate = responses[1]["result"]
    assert simulate["launches"]["opengemm"] > 0
