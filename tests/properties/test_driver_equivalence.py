"""Property: the worklist and legacy sweep pattern drivers are equivalent.

The incremental worklist driver's correctness claim is that it reaches the
*same normal form* as the legacy fixpoint-of-full-sweeps driver — it only
skips the redundant re-walks, never a rewrite.  This property drives every
registered pipeline over random accfg programs once per driver and requires
the printed IR to match exactly.
"""

from hypothesis import HealthCheck, given, settings

from repro.ir import print_operation, use_driver, verify_operation
from repro.passes import PIPELINES, pipeline_by_name
from repro.testing.generator import build, programs

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def normal_form(program, pipeline: str, driver: str) -> str:
    built = build(program)
    with use_driver(driver):
        pipeline_by_name(pipeline).run(built.module)
    verify_operation(built.module)
    return print_operation(built.module)


@RELAXED
@given(programs())
def test_drivers_reach_identical_normal_forms(program):
    for name in PIPELINES:
        worklist = normal_form(program, name, "worklist")
        sweep = normal_form(program, name, "sweep")
        assert worklist == sweep, f"drivers diverge under pipeline {name!r}"
