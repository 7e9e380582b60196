"""Tests for the run provenance helpers (``repro.obs.ledger``)."""

from repro.obs.ledger import config_fingerprint, environment_provenance, git_commit


class TestConfigFingerprint:
    def test_stable_under_key_order(self):
        a = config_fingerprint({"scale": 16, "kernel": "activeset"})
        b = config_fingerprint({"kernel": "activeset", "scale": 16})
        assert a == b
        assert len(a) == 12

    def test_changes_with_any_axis(self):
        base = {"scale": 16, "kernel": "activeset", "codec": "raw"}
        assert config_fingerprint(base) != config_fingerprint(
            {**base, "codec": "auto"}
        )


class TestProvenance:
    def test_environment_keys(self):
        env = environment_provenance()
        assert set(env) == {
            "python", "numpy", "platform", "hostname", "cpu_count",
        }
        assert env["cpu_count"] >= 1

    def test_git_commit_outside_a_repository_is_none(self, tmp_path):
        assert git_commit(tmp_path) is None
