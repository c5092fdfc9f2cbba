"""DET rule family: the core model stays a pure function of its inputs."""

import textwrap


def src(body: str) -> str:
    return textwrap.dedent(body)


def ids(findings):
    return [f.rule for f in findings]


class TestEnvReads:
    def test_environ_read_flagged(self, lint_source):
        findings = lint_source(src("""
            import os

            FLAG = os.environ.get("REPRO_DEBUG", "")
        """))
        assert ids(findings) == ["DET004"]

    def test_getenv_flagged(self, lint_source):
        findings = lint_source(src("""
            import os

            def flag():
                return os.getenv("REPRO_DEBUG")
        """))
        assert ids(findings) == ["DET004"]

    def test_declared_config_module_exempt(self, lint_tree):
        findings = lint_tree({
            "repro/utils/env.py": src("""
                import os

                def env_flag(name):
                    return os.environ.get(name, "")
            """)
        })
        assert findings == []

    def test_other_utils_module_still_flagged(self, lint_tree):
        findings = lint_tree({
            "repro/utils/misc.py": src("""
                import os

                def flag():
                    return os.environ.get("REPRO_DEBUG", "")
            """)
        })
        assert ids(findings) == ["DET004"]
