"""Tests for the compiled-trace cache: keying, invalidation, eviction, and
entries that hold no IR."""

import gc
import json
import os
import random
import subprocess
import sys
import textwrap
import weakref

from repro.engine import TraceCache, compile_module, module_fingerprint
from repro.ir import IntegerAttr, i64, parse_module, structural_key
from repro.ir.block import Block, Region
from repro.ir.operation import Operation
from repro.ir.ssa import SSAValue
from repro.passes import PIPELINES, ConvertLinalgToAccfgPass, pipeline_by_name
from repro.testing.generator import PROFILES, build_spec, generate_spec
from repro.workloads.network import build_mlp

PROGRAM = """
func.func @main(%x : i64) -> (i64) {
  %c = arith.constant 3 : i64
  %y = arith.addi %x, %c : i64
  func.return %y : i64
}
"""


def parse(text: str = PROGRAM):
    return parse_module(text)


REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# Prints each shipped example's IR text with its digest, as JSON.
DIGEST_CHILD = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, "tools")
    from lint_examples import example_modules
    from repro.engine import module_fingerprint
    from repro.ir import parse_module
    print(json.dumps({
        name: [text, module_fingerprint(parse_module(text))]
        for name, text in example_modules().items()
    }))
    """
)


class TestGetOrCompile:
    def test_identical_module_hits(self):
        cache = TraceCache()
        module = parse()
        first = cache.get_or_compile(module)
        second = cache.get_or_compile(module)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_reparsed_module_hits_via_fingerprint(self):
        cache = TraceCache()
        first = cache.get_or_compile(parse())
        second = cache.get_or_compile(parse())
        assert first is second
        assert cache.hits == 1

    def test_structural_key_hits_across_clones(self):
        cache = TraceCache()
        module = parse()
        clone = module.clone()
        first = cache.get_or_compile(module, key=structural_key(module))
        second = cache.get_or_compile(clone, key=structural_key(clone))
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_rate(self):
        cache = TraceCache()
        assert cache.hit_rate == 0.0
        cache.get_or_compile(parse())
        cache.get_or_compile(parse())
        assert cache.hit_rate == 0.5


class TestInvalidation:
    def test_in_place_mutation_misses(self):
        # There is no explicit invalidation: mutating a module changes its
        # structural key / fingerprint, so the stale entry is simply never
        # looked up again.
        cache = TraceCache()
        module = parse()
        stale = cache.get_or_compile(module, key=structural_key(module))
        constant = next(op for op in module.walk() if op.name == "arith.constant")
        constant.attributes["value"] = IntegerAttr(7, i64)
        fresh = cache.get_or_compile(module, key=structural_key(module))
        assert fresh is not stale
        assert cache.misses == 2

    def test_fingerprint_tracks_mutation_too(self):
        module = parse()
        before = module_fingerprint(module)
        constant = next(op for op in module.walk() if op.name == "arith.constant")
        constant.attributes["value"] = IntegerAttr(7, i64)
        assert module_fingerprint(module) != before

    def test_clear_resets_everything(self):
        cache = TraceCache()
        cache.get_or_compile(parse())
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)


class TestStableDigest:
    def test_digest_depends_on_neither_process_nor_hash_seed(self):
        runs = []
        for seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONPATH=os.path.join(REPO, "src"),
                PYTHONHASHSEED=seed,
            )
            env.pop("REPRO_CACHE_DIR", None)
            child = subprocess.run(
                [sys.executable, "-c", DIGEST_CHILD],
                capture_output=True,
                text=True,
                cwd=REPO,
                env=env,
                timeout=120,
            )
            assert child.returncode == 0, child.stderr
            runs.append(json.loads(child.stdout.splitlines()[-1]))
        assert runs[0] == runs[1]
        assert len(runs[0]) == 7
        for text, digest in runs[0].values():
            assert module_fingerprint(parse(text)) == digest


class TestEviction:
    def test_lru_bound(self):
        cache = TraceCache(maxsize=2)
        for value in (1, 2, 3):
            cache.put(f"key-{value}", compile_module(parse()))
        assert len(cache) == 2
        assert cache.get("key-1") is None  # oldest evicted
        assert cache.get("key-3") is not None

    def test_get_refreshes_recency(self):
        cache = TraceCache(maxsize=2)
        cache.put("a", compile_module(parse()))
        cache.put("b", compile_module(parse()))
        cache.get("a")  # "b" is now least recently used
        cache.put("c", compile_module(parse()))
        assert cache.get("a") is not None
        assert cache.get("b") is None


def reachable_ir(root) -> list:
    """The IR objects reachable from ``root`` through containers and
    objects of ``repro`` classes (compiled modules, functions, records)."""
    found = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (Operation, Block, Region, SSAValue)):
            found.append(obj)
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return found


def generated_modules():
    """Optimized fuzz programs: every backend under every pipeline."""
    for backend in sorted(PROFILES):
        for seed in range(3):
            spec = generate_spec(random.Random(seed), backend)
            for pipeline in sorted(PIPELINES):
                built = build_spec(spec, memory_seed=seed)
                pipeline_by_name(pipeline).run(built.module)
                yield built.module


def lowered_mlp():
    """An MLP module: its ``net.requantize`` ops compile to host records."""
    workload = build_mlp([16, 32, 16, 8])
    ConvertLinalgToAccfgPass().apply(workload.module)
    pipeline_by_name("full").run(workload.module)
    return workload.module


class TestHoldsNoIR:
    def test_entries_reach_no_ir(self):
        cache = TraceCache(maxsize=1024)
        modules = [*generated_modules(), lowered_mlp()]
        for index, module in enumerate(modules):
            key = structural_key(module) if index % 2 else None
            cache.get_or_compile(module, key=key)
        assert len(cache) > 10
        assert reachable_ir(cache._entries) == []

    def test_checker_sees_ir(self):
        # The walk above must be able to find IR where there is some.
        module = parse()
        assert reachable_ir({"entry": (1, [module])}) == [module]

    def test_dropped_module_is_freed_while_its_entry_stays(self):
        cache = TraceCache()
        module = next(generated_modules())
        key = structural_key(module)
        compiled = cache.get_or_compile(module, key=key)
        alive = weakref.ref(module)
        del module
        gc.collect()
        assert alive() is None
        assert cache.get(key) is compiled
