"""Exception types shared across the package."""


class MvpoError(Exception):
    """Base class for all package-specific failures."""


class InputError(MvpoError):
    """Input data (frames, YUV files, plans) is missing or inconsistent."""


class MalformedStreamError(MvpoError):
    """Stream bytes or record structure violate the format contract."""

