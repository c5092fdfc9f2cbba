"""HOT007: an enum member loaded through its class in per-cycle code.

``EnumType`` defines ``__getattr__`` in CPython 3.11, so ``Opcode.ADD`` is
a slow attribute load (several times a plain class attribute).  Whether a
name is an enum class is known only once imports are followed, so the
engine builds an enum index from every file of the package and the rule
checks the listed functions against it.
"""

import textwrap

from tests.analysis.conftest import rule_ids

STATE_ENUM = """
    import enum

    class State(enum.Enum):
        WAITING = "waiting"
        DONE = "done"
"""

FUNCTIONAL_ENUM = """
    import enum

    Op = enum.Enum("Op", {"ADD": 1, "SUB": 2}, type=enum.IntEnum)
"""


def lint(lint_tree, files):
    return lint_tree({rel: textwrap.dedent(src) for rel, src in files.items()})


def hot007(findings):
    return [f for f in findings if f.rule == "HOT007"]


class TestEnumClassLoads:
    def test_class_enum_member_in_hot_zone_flagged(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/isa/states.py": STATE_ENUM,
            "repro/sched/hot.py": """
                from repro.isa.states import State

                class Kernel:
                    def step(self, entry):
                        return entry.state is State.WAITING
            """,
        })
        found = hot007(findings)
        assert len(found) == 1
        assert found[0].path == "repro/sched/hot.py"
        assert "State.WAITING" in found[0].message
        assert "hot zone 'Kernel.step'" in found[0].message

    def test_functional_api_enum_flagged(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/isa/ops.py": FUNCTIONAL_ENUM,
            "repro/sched/hot.py": """
                from repro.isa.ops import Op

                class Kernel:
                    def step(self, instr):
                        return instr.opcode is Op.ADD
            """,
        })
        assert [f.message.split()[2] for f in hot007(findings)] == ["Op.ADD"]

    def test_enum_defined_in_the_hot_file_flagged(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/sched/hot.py": """
                from enum import IntEnum

                class Kind(IntEnum):
                    A = 1

                def helper(x):
                    return x == Kind.A
            """,
        })
        assert len(hot007(findings)) == 1

    def test_enum_subclass_through_a_project_base_flagged(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/isa/states.py": STATE_ENUM + """
    class Base(enum.Enum):
        pass

    class Sub(Base):
        X = 1
""",
            "repro/sched/hot.py": """
                from repro.isa.states import Sub

                def helper(x):
                    return x is Sub.X
            """,
        })
        assert len(hot007(findings)) == 1

    def test_listed_helper_elsewhere_flagged(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/isa/ops.py": FUNCTIONAL_ENUM + """
    def is_add(instr):
        return instr.opcode is Op.ADD
""",
        })
        found = hot007(findings)
        assert len(found) == 1
        assert found[0].path == "repro/isa/ops.py"
        assert "hot zone 'is_add'" in found[0].message

    def test_enum_reexported_by_a_package_flagged(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/isa/ops.py": FUNCTIONAL_ENUM,
            "repro/isa/__init__.py": """
                from repro.isa.ops import Op as Opcode
            """,
            "repro/sched/hot.py": """
                from repro.isa import Opcode

                def helper(instr):
                    return instr.opcode is Opcode.SUB
            """,
        })
        assert [f.message.split()[2] for f in hot007(findings)] == [
            "Opcode.SUB"
        ]

    def test_module_constant_is_the_fix(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/isa/ops.py": FUNCTIONAL_ENUM,
            "repro/sched/hot.py": """
                from repro.isa.ops import Op

                _ADD = Op.ADD

                class Kernel:
                    def step(self, instr):
                        return instr.opcode is _ADD
            """,
        })
        assert "HOT007" not in rule_ids(findings)

    def test_plain_class_attribute_not_flagged(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/sched/hot.py": """
                class Limits:
                    WIDTH = 4

                class Kernel:
                    def step(self):
                        return Limits.WIDTH
            """,
        })
        assert "HOT007" not in rule_ids(findings)

    def test_cold_function_raise_and_suppression_exempt(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/isa/states.py": STATE_ENUM,
            "repro/sched/hot.py": """
                from repro.isa.states import State

                class Kernel:
                    def step(self, entry):
                        if entry is None:
                            raise ValueError(State.DONE.value)
                        # repro: allow[HOT007] -- measured: runs once per job
                        return entry.state is State.DONE

                    def snapshot(self, entry):
                        return entry.state is State.WAITING
            """,
        })
        assert "HOT007" not in rule_ids(findings)

    def test_unlisted_helper_not_flagged(self, lint_tree):
        findings = lint(lint_tree, {
            "repro/isa/states.py": STATE_ENUM + """
    def is_done(entry):
        return entry.state is State.DONE
""",
            "repro/sched/hot.py": """
                from repro.isa.states import is_done

                class Kernel:
                    def step(self, entry):
                        return is_done(entry)
            """,
        })
        assert "HOT007" not in rule_ids(findings)
