"""md5 and sha256 from CPython's own C modules, without OpenSSL.

``import hashlib`` loads OpenSSL's libcrypto, about 3.5 MiB of resident
memory, and sqlgrow hashes only trigrams, seed tags, its config and its
input files. The stdlib's ``random`` takes ``_sha512`` this way too
("hashlib is pretty heavy to load"). Both implementations give the same
digest bytes. The built-in sha256 is the slower one: about 4.4 ms per MiB
against 0.8 ms for OpenSSL's (Python 3.11, x86-64), which only the one
hash of the input files per run notices. ``hashlib`` is the fallback for a
build without the built-in modules.
"""

try:
    from _md5 import md5
except ImportError:
    from hashlib import md5

try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256
