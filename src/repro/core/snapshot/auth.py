"""Authenticated snapshot accounts (paper Section 4.2).

"By moving to an authenticated system on a secure machine, one could
break some of these connections and obscure individuals' activities
while providing better security.  The repository would associate
impersonal account identifiers with a set of URLs and version numbers,
and passwords would be needed to access one of these accounts.
Whoever administers this facility, however, will still have information
about which user accesses which pages, unless the account creation can
be done anonymously."

:class:`AccountRegistry` issues impersonal account identifiers
(``acct-xxxx``), stores salted password hashes, and hands out session
tokens; :class:`AuthenticatedSnapshotService` wraps a
:class:`~repro.core.snapshot.store.SnapshotStore` so that every
operation runs under the opaque account id instead of an email address.
The administrator's residual visibility is deliberate and surfaced via
:meth:`AccountRegistry.admin_audit` — the paper's caveat, reproduced.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...web.url import canonical_url
from .store import RememberResult, SnapshotStore

__all__ = ["AuthError", "AccountRegistry", "AuthenticatedSnapshotService"]


class AuthError(Exception):
    """Bad credentials or an invalid/expired session token."""


def _hash_password(password: str, salt: str) -> str:
    return hashlib.md5(f"{salt}:{password}".encode("utf-8")).hexdigest()


@dataclass
class _Account:
    account_id: str
    salt: str
    password_hash: str
    created_at: int


class AccountRegistry:
    """Impersonal account identifiers with password authentication.

    Account creation is anonymous by default (no email requested),
    taking the paper's closing "unless the account creation can be done
    anonymously" seriously.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self._accounts: Dict[str, _Account] = {}
        self._tokens: Dict[str, str] = {}  # token -> account id
        self._counter = 0

    # ------------------------------------------------------------------
    def create_account(self, password: str) -> str:
        """Anonymous account creation; returns the opaque account id."""
        if not password:
            raise AuthError("a password is required")
        self._counter += 1
        account_id = f"acct-{self._counter:04d}"
        salt = hashlib.md5(
            f"{account_id}:{self.clock.now}".encode("utf-8")
        ).hexdigest()[:8]
        self._accounts[account_id] = _Account(
            account_id=account_id,
            salt=salt,
            password_hash=_hash_password(password, salt),
            created_at=self.clock.now,
        )
        return account_id

    def login(self, account_id: str, password: str) -> str:
        """Authenticate; returns a session token for subsequent calls."""
        account = self._accounts.get(account_id)
        if account is None:
            raise AuthError("no such account")
        if _hash_password(password, account.salt) != account.password_hash:
            raise AuthError("wrong password")
        token = hashlib.md5(
            f"{account_id}:{self.clock.now}:{len(self._tokens)}".encode()
        ).hexdigest()
        self._tokens[token] = account_id
        return token

    def logout(self, token: str) -> None:
        self._tokens.pop(token, None)

    def resolve(self, token: str) -> str:
        """Account id behind a session token (raises on bad tokens)."""
        account_id = self._tokens.get(token)
        if account_id is None:
            raise AuthError("invalid or expired session token")
        return account_id

    def change_password(self, account_id: str, old: str, new: str) -> None:
        account = self._accounts.get(account_id)
        if account is None:
            raise AuthError("no such account")
        if _hash_password(old, account.salt) != account.password_hash:
            raise AuthError("wrong password")
        if not new:
            raise AuthError("a password is required")
        account.password_hash = _hash_password(new, account.salt)
        # All existing sessions for the account are revoked.
        for token in [t for t, a in self._tokens.items() if a == account_id]:
            del self._tokens[token]

    # ------------------------------------------------------------------
    def admin_audit(self) -> List[Tuple[str, int]]:
        """What the administrator can still see: which accounts exist
        and when they were created.  Account→person linkage is gone
        (anonymous creation), but account→URL activity remains visible
        in the store — the paper's honest caveat."""
        return [
            (account.account_id, account.created_at)
            for account in self._accounts.values()
        ]


class AuthenticatedSnapshotService:
    """A session-token gate in front of a snapshot store."""

    def __init__(self, store: SnapshotStore, registry: AccountRegistry) -> None:
        self.store = store
        self.registry = registry

    # Every operation takes the session token, never an identity string.
    def remember(self, token: str, url: str) -> RememberResult:
        return self.store.remember(self.registry.resolve(token), url)

    def diff(self, token: str, url: str,
             rev_old: Optional[str] = None, rev_new: Optional[str] = None):
        return self.store.diff(self.registry.resolve(token), url,
                               rev_old=rev_old, rev_new=rev_new)

    def history(self, token: str, url: str):
        return self.store.history(self.registry.resolve(token), url)

    def my_urls(self, token: str) -> List[str]:
        return self.store.users.urls_for(self.registry.resolve(token))

    def who_tracks(self, token: str, url: str) -> List[str]:
        """Even authenticated users only learn *opaque ids*, not email
        addresses — the linkage the redesign set out to break."""
        self.registry.resolve(token)  # must be logged in to ask at all
        return self.store.users.users_tracking(canonical_url(url))
