"""CON rule family: the threaded serving layer's locking discipline."""

import textwrap


def src(body: str) -> str:
    return textwrap.dedent(body)


def ids(findings):
    return [f.rule for f in findings]


PATH = "repro/serving/store.py"


class TestSqliteLocking:
    def test_execute_outside_lock_flagged(self, lint_tree):
        findings = lint_tree({PATH: src("""
            class Store:
                def list_runs(self):
                    return self._conn.execute("SELECT 1").fetchall()
        """)})
        # fetchall's receiver is the execute() call, not a named connection,
        # so only the execute itself is flagged
        assert ids(findings) == ["CON001"]

    def test_commit_outside_lock_flagged(self, lint_tree):
        findings = lint_tree({PATH: src("""
            class Store:
                def save(self):
                    self._conn.commit()
        """)})
        assert ids(findings) == ["CON001"]

    def test_execute_under_lock_ok(self, lint_tree):
        findings = lint_tree({PATH: src("""
            class Store:
                def list_runs(self):
                    with self._lock:
                        return self._conn.execute("SELECT 1").fetchall()
        """)})
        assert findings == []

    def test_unrelated_execute_receiver_ok(self, lint_tree):
        findings = lint_tree({PATH: src("""
            class Runner:
                def go(self):
                    return self.pool.execute(job)
        """)})
        assert findings == []

    def test_out_of_scope_file_ok(self, lint_tree):
        findings = lint_tree({"repro/sched/cold.py": src("""
            class Store:
                def save(self):
                    self._conn.commit()
        """)})
        assert findings == []


class TestSharedModuleState:
    def test_module_dict_mutated_in_function_flagged(self, lint_tree):
        findings = lint_tree({PATH: src("""
            _CACHE = {}

            def remember(key, value):
                _CACHE[key] = value
        """)})
        assert ids(findings) == ["CON002"]

    def test_global_reassignment_flagged(self, lint_tree):
        findings = lint_tree({PATH: src("""
            _rev = None

            def current_rev():
                global _rev
                if _rev is None:
                    _rev = compute()
                return _rev
        """)})
        assert ids(findings) == ["CON002"]

    def test_mutation_under_lock_ok(self, lint_tree):
        findings = lint_tree({PATH: src("""
            import threading

            _CACHE = {}
            _CACHE_LOCK = threading.Lock()

            def remember(key, value):
                with _CACHE_LOCK:
                    _CACHE[key] = value
        """)})
        assert findings == []

    def test_module_level_initialisation_ok(self, lint_tree):
        findings = lint_tree({PATH: src("""
            _CACHE = {}
            _CACHE.update({"seed": 1})
        """)})
        assert findings == []


class TestStoreScopes:
    """CON001 v2: the WAL store's _read()/_write() scopes satisfy it."""

    def test_execute_under_read_scope_ok(self, lint_tree):
        findings = lint_tree({PATH: src("""
            class Store:
                def list_runs(self):
                    with self._read() as conn:
                        return conn.execute("SELECT 1").fetchall()
        """)})
        assert findings == []

    def test_execute_under_write_scope_ok(self, lint_tree):
        findings = lint_tree({PATH: src("""
            class Store:
                def record(self):
                    with self._write() as conn:
                        conn.execute("INSERT INTO runs VALUES (1)")
        """)})
        assert findings == []

    def test_scope_implementations_exempt(self, lint_tree):
        findings = lint_tree({PATH: src("""
            class Store:
                def _connect(self):
                    conn = self.make()
                    conn.execute("PRAGMA journal_mode = WAL")
                    return conn
        """)})
        assert findings == []

    def test_bare_execute_still_flagged(self, lint_tree):
        findings = lint_tree({PATH: src("""
            class Store:
                def sneaky(self):
                    return self._conn.execute("SELECT 1")
        """)})
        assert ids(findings) == ["CON001"]
