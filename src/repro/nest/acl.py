"""AFS-style access control built on collections of ClassAds.

"Access control is provided within NeST via a generic framework built
on top of collections of ClassAd.  AFS-style access control lists
determine read, write, modify, insert, and other privileges, and the
typical notions of users and groups are maintained." (paper, section 5)

Each directory carries an ACL: a :class:`ClassAdCollection` whose
member ads name a *subject* (a user, ``group:<name>``, or ``*`` for
anyone including anonymous) and a *rights string*.  Permission checks
are constraint queries over the collection, so the policy language is
the ClassAd language itself.

Rights letters (AFS lineage, adapted to the paper's list):

=======  =============================================
``r``    read file data
``w``    write/overwrite file data
``m``    modify metadata (rename, touch)
``i``    insert new files/directories
``d``    delete files/directories
``l``    lookup / list directory contents
``a``    administer (change this ACL)
=======  =============================================

ACLs are enforced "across any and all protocols that NeST supports"
(section 5): the storage manager consults them for every request, and
only Chirp (or another protocol with ACL semantics) can modify them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.classads import ClassAd, ClassAdCollection
from repro.obs.metrics import Counter, MetricsRegistry, global_registry

#: All recognised rights letters, in canonical order.
ALL_RIGHTS = "rwmidla"


class AclError(ValueError):
    """Malformed rights string or subject."""


@dataclass(frozen=True)
class Rights:
    """An immutable set of rights letters."""

    letters: frozenset[str]

    @classmethod
    def parse(cls, text: str) -> "Rights":
        """Parse a rights string like ``"rl"`` or ``"all"`` / ``"none"``."""
        lowered = text.strip().lower()
        if lowered == "all":
            return cls(frozenset(ALL_RIGHTS))
        if lowered in ("none", ""):
            return cls(frozenset())
        bad = set(lowered) - set(ALL_RIGHTS)
        if bad:
            raise AclError(f"unknown rights letters {sorted(bad)!r}")
        return cls(frozenset(lowered))

    def __contains__(self, letter: str) -> bool:
        return letter in self.letters

    def __str__(self) -> str:
        return "".join(c for c in ALL_RIGHTS if c in self.letters)

    def union(self, other: "Rights") -> "Rights":
        return Rights(self.letters | other.letters)


#: Convenience instances.
ALL = Rights.parse("all")
NONE = Rights.parse("none")
READ_ONLY = Rights.parse("rl")


def _entry_ad(subject: str, rights: Rights) -> ClassAd:
    """Build the ClassAd for one ACL entry."""
    return ClassAd({"Type": "AclEntry", "Subject": subject, "Rights": str(rights)})


@dataclass
class AccessControl:
    """One directory's ACL plus the shared group map.

    ``groups`` maps group names to member users; it is shared across
    the whole server (typical AFS deployment style) and injected by the
    storage manager.
    """

    entries: ClassAdCollection = field(default_factory=ClassAdCollection)
    groups: dict[str, set[str]] = field(default_factory=dict)
    #: Memoized rights per subject set.  The ACL language is evaluated
    #: per *entry change*, not per request: ``set_entry`` clears this,
    #: and group-membership changes alter the subject-set key, so a hit
    #: is always the same pure function of the same inputs.
    _rights_cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- management ----------------------------------------------------------
    def set_entry(self, subject: str, rights: Rights | str) -> None:
        """Set (or replace) the rights for ``subject``."""
        if isinstance(rights, str):
            rights = Rights.parse(rights)
        if not subject:
            raise AclError("empty ACL subject")
        self.entries.remove_if(
            lambda ad: str(ad.eval("Subject")).lower() == subject.lower()
        )
        if rights.letters:
            self.entries.add(_entry_ad(subject, rights))
        self._rights_cache.clear()

    def drop_entry(self, subject: str) -> None:
        """Remove ``subject``'s entry entirely."""
        self.set_entry(subject, NONE)

    def listing(self) -> list[tuple[str, str]]:
        """All (subject, rights) pairs, for ``acl_get``."""
        return [
            (str(ad.eval("Subject")), str(ad.eval("Rights"))) for ad in self.entries
        ]

    def copy(self) -> "AccessControl":
        """Per-directory copy sharing the group map (for mkdir inherit)."""
        dup = AccessControl(groups=self.groups)
        for subject, rights in self.listing():
            dup.set_entry(subject, Rights.parse(rights))
        return dup

    # -- checking ----------------------------------------------------------
    def _subjects_for(self, user: str) -> set[str]:
        subjects = {user.lower(), "*"}
        for group, members in self.groups.items():
            if user in members:
                subjects.add(f"group:{group}".lower())
        return subjects

    def rights_of(self, user: str) -> Rights:
        """The union of rights granted to ``user`` by any applicable entry."""
        subjects = self._subjects_for(user)
        key = frozenset(subjects)
        granted = self._rights_cache.get(key)
        if granted is None:
            granted = NONE
            for ad in self.entries:
                if str(ad.eval("Subject")).lower() in subjects:
                    granted = granted.union(Rights.parse(str(ad.eval("Rights"))))
            self._rights_cache[key] = granted
        return granted

    def allows(self, user: str, letter: str) -> bool:
        """True iff ``user`` holds the right ``letter`` here."""
        if letter not in ALL_RIGHTS:
            raise AclError(f"unknown right {letter!r}")
        allowed = letter in self.rights_of(user)
        _count_check(allowed)
        return allowed


#: The registry ``_count_check`` last resolved its counter in, and that
#: counter: registered once per registry, not once per check.
_checks: tuple[MetricsRegistry, Counter] | None = None


def _count_check(allowed: bool) -> None:
    """Process-wide ACL check/denial tally (ACL objects are per
    directory and carry no registry reference).  The counter is
    re-resolved only when ``reset_global_registry`` swapped the
    registry."""
    global _checks
    registry = global_registry()
    cached = _checks
    if cached is None or cached[0] is not registry:
        cached = _checks = (registry, registry.counter(
            "repro_acl_checks_total",
            "ACL checks evaluated, by outcome.",
            labelnames=("outcome",),
        ))
    cached[1].inc(outcome="allowed" if allowed else "denied")


def default_acl(owner: str, groups: dict[str, set[str]] | None = None,
                anonymous_rights: str = "rl") -> AccessControl:
    """The ACL a fresh directory gets: owner all, anonymous read/lookup.

    Anonymous read access mirrors the paper's deployment, where
    NFS/HTTP/FTP clients are anonymous yet must be able to read staged
    data; administrators can tighten it per directory via Chirp.
    """
    acl = AccessControl(groups=groups if groups is not None else {})
    acl.set_entry(owner, ALL)
    if anonymous_rights:
        acl.set_entry("*", Rights.parse(anonymous_rights))
    return acl
