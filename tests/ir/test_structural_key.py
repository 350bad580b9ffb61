"""Tests for structural_key: the exact, hashable module cache key."""

from repro.ir import IntegerAttr, i64, parse_module, structural_key


def parse(text: str):
    return parse_module(text)


PROGRAM = """
func.func @main(%x : i64) -> (i64) {
  %c = arith.constant 3 : i64
  %y = arith.addi %x, %c : i64
  func.return %y : i64
}
"""


class TestEquality:
    def test_deterministic(self):
        module = parse(PROGRAM)
        assert structural_key(module) == structural_key(module)

    def test_clone_has_equal_key(self):
        module = parse(PROGRAM)
        assert structural_key(module.clone()) == structural_key(module)

    def test_reparsed_text_has_equal_key(self):
        # Keys depend only on structure, never on object identity, so two
        # independent parses of the same text must collide (that is what
        # makes the trace cache hit across pipeline clones).
        assert structural_key(parse(PROGRAM)) == structural_key(parse(PROGRAM))

    def test_key_is_hashable(self):
        cache = {structural_key(parse(PROGRAM)): "entry"}
        assert cache[structural_key(parse(PROGRAM))] == "entry"


class TestInequality:
    def test_attribute_value_changes_key(self):
        module = parse(PROGRAM)
        before = structural_key(module)
        constant = next(op for op in module.walk() if op.name == "arith.constant")
        constant.attributes["value"] = IntegerAttr(4, i64)
        assert structural_key(module) != before

    def test_different_op_changes_key(self):
        other = parse(PROGRAM.replace("arith.addi", "arith.muli"))
        assert structural_key(other) != structural_key(parse(PROGRAM))

    def test_operand_topology_changes_key(self):
        swapped = parse(PROGRAM.replace("%x, %c", "%c, %x"))
        assert structural_key(swapped) != structural_key(parse(PROGRAM))

    def test_region_structure_changes_key(self):
        looped = parse(
            """
            func.func @main(%x : i64) -> (i64) {
              %c = arith.constant 3 : i64
              %lb = arith.constant 0 : index
              %ub = arith.constant 2 : index
              %st = arith.constant 1 : index
              scf.for %i = %lb to %ub step %st {
                %y = arith.addi %x, %c : i64
              }
              func.return %c : i64
            }
            """
        )
        assert structural_key(looped) != structural_key(parse(PROGRAM))


ACCFG_PROGRAM = """
func.func @main(%x : i64) -> () {
  %c = arith.constant 3 : i64
  %s = accfg.setup on "toyvec" ("n" = %x : i64, "op" = %c : i64) : !accfg.state<"toyvec">
  %t = accfg.launch %s : !accfg.token<"toyvec">
  accfg.await %t
  func.call @g(%x) : (i64) -> ()
  func.return
}
"""


class TestAtomInterning:
    def test_atom_ids_are_stable_across_modules(self):
        # Attributes and types enter the key as their text, kept on each
        # attribute, so equal modules get equal keys every time.
        first = structural_key(parse(PROGRAM))
        for _ in range(3):
            assert structural_key(parse(PROGRAM)) == first

    def test_equal_keys_share_their_strings(self):
        # The trace cache holds hundreds of keys side by side; each distinct
        # atom text is one string among them, whatever module it came from.
        text = ACCFG_PROGRAM
        first, second = structural_key(parse(text)), structural_key(parse(text))
        assert first == second
        strings = [(a, b) for a, b in zip(first, second) if isinstance(a, str)]
        assert len(strings) > 10
        assert all(a is b for a, b in strings)

    def test_a_clone_formats_no_attribute_again(self, monkeypatch):
        """Each attribute keeps its text: keying a clone, which shares the
        attributes, formats none of them, and a new attribute is formatted
        once however often it is keyed."""
        from repro.ir import printer

        module = parse(ACCFG_PROGRAM)
        key = structural_key(module)
        formatted = []
        original = printer.format_attribute

        def counting(attr):
            formatted.append(attr)
            return original(attr)

        monkeypatch.setattr(printer, "format_attribute", counting)
        clone = module.clone()
        assert structural_key(clone) == key
        assert formatted == []
        constant = next(op for op in clone.walk() if op.name == "arith.constant")
        constant.attributes["value"] = value = IntegerAttr(4, i64)
        for _ in range(2):
            assert structural_key(clone) != key
        assert formatted == [value]
        # The kept text is the attribute's text; equality ignores it.
        assert value._key_text == original(value)
        assert value == IntegerAttr(4, i64) and hash(value) == hash(IntegerAttr(4, i64))
