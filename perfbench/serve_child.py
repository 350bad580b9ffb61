"""``python -m repro serve --port 0`` with every layer span installed.

Started by ``serving.py`` for the traced pass, with ``PYTHONPATH`` pointing
at the checkout's ``src/``.  After the server shuts down it prints one line,
``PERFBENCH-LAYERS <json>``, holding the tracer's snapshot.
"""

from __future__ import annotations

import json
import sys

from layers import Tracer
from serving import LAYERS_MARKER


def main() -> int:
    from repro.__main__ import main as repro_main

    with Tracer() as tracer:
        code = repro_main(["serve", "--port", "0"])
        snapshot = tracer.snapshot()
    print(LAYERS_MARKER + json.dumps(snapshot), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
