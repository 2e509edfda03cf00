"""The one exception tree: every ckstab error is either an input error or a
failed internal check."""


class CkstabError(Exception):
    """Root of every exception ckstab raises on purpose."""


class InputError(CkstabError):
    """The input (a model, a vector, a flag, a file) is invalid; the CLI
    exits 1."""


class InternalInvariantError(CkstabError):
    """One of ckstab's own cross-checks failed, which is a bug; the CLI
    exits 2."""
