"""Exception types shared across the package, and the geometry rule every input shares."""


class MvpoError(Exception):
    """Base class for all package-specific failures."""


class InputError(MvpoError):
    """Input data (frames, YUV files, plans) is missing or inconsistent."""


class MalformedStreamError(MvpoError):
    """Stream bytes or record structure violate the format contract."""


def check_geometry(width: int, height: int, frames: int, size_key: str, frames_key: str, where: str = "") -> None:
    """Refuse a size or frame count no sequence has, naming the key it was given by and, after it, `where`."""
    if width <= 0 or height <= 0:
        raise InputError(f"{size_key} {width}x{height} must be positive{where}")
    if frames < 1:
        raise InputError(f"{frames_key} {frames} must be >= 1{where}")
