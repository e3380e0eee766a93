"""S7: pass-phrase and lifetime policy enforcement (§4.1, §4.3)."""

import pytest

from repro.core.policy import ONE_WEEK, PassphrasePolicy, ServerPolicy
from repro.util.errors import PolicyError


class TestPassphrasePolicy:
    def test_good_phrase_accepted(self):
        PassphrasePolicy().check("correct horse 42")  # no raise

    def test_too_short_rejected(self):
        with pytest.raises(PolicyError, match="at least"):
            PassphrasePolicy(min_length=6).check("ab1")

    def test_dictionary_word_rejected(self):
        with pytest.raises(PolicyError, match="dictionary"):
            PassphrasePolicy().check("password")

    def test_dictionary_check_case_insensitive(self):
        with pytest.raises(PolicyError):
            PassphrasePolicy().check("PaSsWoRd")

    def test_decorated_dictionary_word_rejected(self):
        with pytest.raises(PolicyError):
            PassphrasePolicy().check("password1!")

    def test_custom_dictionary(self):
        policy = PassphrasePolicy(dictionary=frozenset({"swordfish"}))
        with pytest.raises(PolicyError):
            policy.check("swordfish")
        policy.check("password-like but fine? no wait")  # not in custom dict

    def test_require_non_alpha(self):
        policy = PassphrasePolicy(require_non_alpha=True)
        with pytest.raises(PolicyError):
            policy.check("onlyletters")
        policy.check("letters4nd numbers")

    def test_username_rules(self):
        policy = PassphrasePolicy()
        policy.check_username("alice")
        policy.check_username("a.lice-42@site")
        for bad in ("", " alice", "alice!", "-leadingdash", "x" * 65):
            with pytest.raises(PolicyError):
                policy.check_username(bad)


class TestServerPolicy:
    def test_paper_defaults(self):
        policy = ServerPolicy()
        assert policy.max_stored_lifetime == ONE_WEEK  # §4.3: "defaults to one week"
        assert policy.max_delegation_lifetime <= 24 * 3600  # "a few hours"

    def test_stored_lifetime_cap(self):
        policy = ServerPolicy(max_stored_lifetime=100.0)
        policy.check_stored_lifetime(100.0)
        with pytest.raises(PolicyError):
            policy.check_stored_lifetime(101.0)
        with pytest.raises(PolicyError):
            policy.check_stored_lifetime(0.0)

    def test_default_acls_allow_all(self):
        policy = ServerPolicy()
        from repro.pki.names import DistinguishedName

        anyone = DistinguishedName.grid_user("Grid", "X", "Whoever")
        assert policy.accepted_credentials.allows(anyone)
        assert policy.authorized_retrievers.allows(anyone)
