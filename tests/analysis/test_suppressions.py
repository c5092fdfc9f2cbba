"""Inline ``# repro: allow[...]`` suppression semantics."""

import textwrap


def src(body: str) -> str:
    return textwrap.dedent(body)


def ids(findings):
    return [f.rule for f in findings]


class TestInlineSuppression:
    def test_same_line_suppression(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    return [x for x in self.window]  # repro: allow[HOT001]
        """))
        assert findings == []

    def test_line_above_suppression(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    # repro: allow[HOT003] -- debug label, measured fine
                    label = f"cycle {self.cycle}"
                    return label
        """))
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    return [x for x in self.window]  # repro: allow[HOT003]
        """))
        assert ids(findings) == ["HOT001"]

    def test_multiple_ids_in_one_comment(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    # repro: allow[HOT001, HOT003]
                    return [f"{x}" for x in self.window]
        """))
        assert findings == []

    def test_no_blanket_form(self, lint_source):
        # an empty bracket suppresses nothing: every suppression names rules
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    return [x for x in self.window]  # repro: allow[]
        """))
        assert ids(findings) == ["HOT001"]

    def test_suppression_only_covers_its_line(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):
                    a = [x for x in self.window]  # repro: allow[HOT001]
                    b = [y for y in self.window]
                    return a, b
        """))
        assert ids(findings) == ["HOT001"]


class TestScopedSuppression:
    def test_def_header_suppression_covers_body(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                def step(self):  # repro: allow[HOT001]
                    a = [x for x in self.window]
                    b = [y for y in self.window]
                    return a, b
        """))
        assert findings == []

    def test_comment_block_above_header_covers_body(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                # this function deliberately materialises its result:
                # callers keep the list across cycles.
                # repro: allow[HOT001]
                def step(self):
                    return [x for x in self.window]
        """))
        assert findings == []

    def test_scoped_suppression_does_not_leak_to_siblings(self, lint_source):
        findings = lint_source(src("""
            class Kernel:
                # repro: allow[HOT001]
                def step(self):
                    return [x for x in self.window]

                def tick(self):
                    return [y for y in self.window]
        """))
        assert ids(findings) == ["HOT001"]
        assert findings[0].line == 8

    def test_class_header_suppression_covers_methods(self, lint_source):
        findings = lint_source(src("""
            class Kernel:  # repro: allow[HOT003]
                def step(self):
                    return f"cycle {self.cycle}"

                def tick(self):
                    return f"tick {self.cycle}"
        """))
        assert findings == []

    def test_decorated_def_suppression(self, lint_tree):
        findings = lint_tree({"repro/sched/hot.py": src("""
            import functools

            # repro: allow[HOT001] -- memoised: runs once per window
            @functools.lru_cache
            def helper(window):
                return [x for x in window]
        """)})
        assert findings == []


class TestScopedEdgeCases:
    """Def-scoped suppressions on decorated functions, async defs and
    class bodies — each with a matching negative."""

    def test_decorated_def_decorator_line_covers_body(self, lint_source):
        findings = lint_source(src("""
            import functools

            class Kernel:
                @functools.cache  # repro: allow[HOT001]
                def step(self):
                    return [x for x in self.window]
        """))
        assert findings == []

    def test_decorated_def_wrong_rule_does_not_suppress(self, lint_source):
        findings = lint_source(src("""
            import functools

            class Kernel:
                @functools.cache  # repro: allow[HOT003]
                def step(self):
                    return [x for x in self.window]
        """))
        assert ids(findings) == ["HOT001"]

    def test_comment_block_above_decorator_covers_body(self, lint_source):
        findings = lint_source(src("""
            import functools

            class Kernel:
                # memoised: the comprehension runs once per distinct window
                # repro: allow[HOT001]
                @functools.cache
                def step(self):
                    return [x for x in self.window]
        """))
        assert findings == []

    def test_async_def_header_suppression_covers_body(self, lint_source):
        findings = lint_source(src("""
            async def helper(window):  # repro: allow[HOT001]
                return [x for x in window]
        """))
        assert findings == []

    def test_async_def_suppression_does_not_leak_to_sibling(self, lint_source):
        findings = lint_source(src("""
            # repro: allow[HOT001]
            async def helper(window):
                return [x for x in window]

            async def other(window):
                return [y for y in window]
        """))
        assert ids(findings) == ["HOT001"]
        assert findings[0].line == 7

    def test_class_body_comment_block_covers_all_methods(self, lint_source):
        findings = lint_source(src("""
            # presentation helpers: formatting is this class's entire job
            # repro: allow[HOT003]
            class Kernel:
                def step(self):
                    return f"cycle {self.cycle}"

                def tick(self):
                    return f"tick {self.cycle}"
        """))
        assert findings == []

    def test_class_scope_ends_at_class_end(self, lint_source):
        findings = lint_source(src("""
            # repro: allow[HOT003]
            class Kernel:
                def step(self):
                    return f"cycle {self.cycle}"

            def helper(cycle):
                return f"outside {cycle}"
        """))
        assert ids(findings) == ["HOT003"]
        assert findings[0].line == 8
