"""SHA-256 without OpenSSL.

``hashlib`` loads and initialises OpenSSL's libcrypto on import, which
is about 3.6 MB of every process's resident memory; the repo only ever
needs SHA-256, and CPython carries its own implementation of it
(``_sha256`` up to 3.11, ``_sha2`` from 3.12).  The digests are the
same bytes, so every stream seed, cache path and fingerprint is
unchanged.  CPython's ``random`` module takes the same route for
SHA-512.  This module imports nothing else, so any layer may use it.
"""

from __future__ import annotations

try:
    from _sha2 import sha256
except ImportError:  # pragma: no cover - interpreter-dependent
    try:
        from _sha256 import sha256
    except ImportError:
        # A build without the built-in hash modules: this one loads
        # OpenSSL after all.
        from hashlib import sha256

__all__ = ["sha256"]
