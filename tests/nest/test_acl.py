"""Unit tests for AFS-style ACLs over ClassAd collections."""

import pytest

from repro.nest.acl import (
    ALL,
    ALL_RIGHTS,
    AccessControl,
    AclError,
    Rights,
    default_acl,
)


class TestRights:
    def test_parse_letters(self):
        r = Rights.parse("rl")
        assert "r" in r and "l" in r and "w" not in r

    def test_parse_all_none(self):
        assert str(Rights.parse("all")) == ALL_RIGHTS
        assert str(Rights.parse("none")) == ""
        assert str(Rights.parse("")) == ""

    def test_canonical_ordering(self):
        assert str(Rights.parse("lr")) == "rl"

    def test_unknown_letter_rejected(self):
        with pytest.raises(AclError):
            Rights.parse("rz")

    def test_union(self):
        assert str(Rights.parse("r").union(Rights.parse("w"))) == "rw"


class TestAccessControl:
    def test_owner_gets_all(self):
        acl = default_acl("alice", anonymous_rights="")
        for letter in ALL_RIGHTS:
            assert acl.allows("alice", letter)

    def test_stranger_gets_nothing(self):
        acl = default_acl("alice", anonymous_rights="")
        assert not acl.allows("bob", "r")

    def test_anonymous_default_read_lookup(self):
        acl = default_acl("alice", anonymous_rights="rl")
        assert acl.allows("whoever", "r")
        assert acl.allows("whoever", "l")
        assert not acl.allows("whoever", "w")

    def test_set_entry_replaces(self):
        acl = AccessControl()
        acl.set_entry("bob", "rl")
        acl.set_entry("bob", "w")
        assert not acl.allows("bob", "r")
        assert acl.allows("bob", "w")

    def test_drop_entry(self):
        acl = AccessControl()
        acl.set_entry("bob", "rw")
        acl.drop_entry("bob")
        assert not acl.allows("bob", "r")
        assert acl.listing() == []

    def test_subject_case_insensitive(self):
        acl = AccessControl()
        acl.set_entry("Bob", "r")
        assert acl.allows("bob", "r")

    def test_rights_union_across_entries(self):
        acl = AccessControl(groups={"team": {"bob"}})
        acl.set_entry("bob", "r")
        acl.set_entry("group:team", "w")
        assert acl.allows("bob", "r") and acl.allows("bob", "w")

    def test_group_membership(self):
        acl = AccessControl(groups={"wind": {"alice", "bob"}})
        acl.set_entry("group:wind", "rwl")
        assert acl.allows("alice", "w")
        assert not acl.allows("carol", "w")

    def test_empty_subject_rejected(self):
        acl = AccessControl()
        with pytest.raises(AclError):
            acl.set_entry("", "r")

    def test_unknown_right_check_rejected(self):
        acl = AccessControl()
        with pytest.raises(AclError):
            acl.allows("bob", "z")

    def test_listing(self):
        acl = AccessControl()
        acl.set_entry("a", "rl")
        acl.set_entry("b", ALL)
        listing = dict(acl.listing())
        assert listing == {"a": "rl", "b": ALL_RIGHTS}

    def test_copy_independent(self):
        acl = AccessControl()
        acl.set_entry("a", "r")
        dup = acl.copy()
        dup.set_entry("a", "w")
        assert acl.allows("a", "r") and not acl.allows("a", "w")

    def test_copy_shares_groups(self):
        groups = {"g": {"x"}}
        acl = AccessControl(groups=groups)
        dup = acl.copy()
        assert dup.groups is groups


class TestCheckCounter:
    def test_counter_follows_a_swapped_global_registry(self):
        from repro.obs.metrics import reset_global_registry

        acl = AccessControl()
        acl.set_entry("a", "r")
        first = reset_global_registry()
        acl.allows("a", "r")
        acl.allows("b", "r")
        checks = first.get("repro_acl_checks_total")
        assert checks.value(outcome="allowed") == 1
        assert checks.value(outcome="denied") == 1
        second = reset_global_registry()
        acl.allows("a", "r")
        assert second.get("repro_acl_checks_total").value(
            outcome="allowed") == 1
        assert checks.value(outcome="allowed") == 1  # the old one is left
        assert second.get("repro_acl_checks_total").labelnames == (
            "outcome",)
