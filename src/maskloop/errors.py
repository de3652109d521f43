"""Exception types shared across the package."""

from __future__ import annotations


class MaskLoopError(Exception):
    """Base class for all package-specific errors."""


class MaskShapeError(MaskLoopError, ValueError):
    """Raster shapes do not line up (or a raster is malformed)."""


class EmptyMaskError(MaskLoopError, ValueError):
    """An operation that needs foreground pixels got an empty mask."""


class RleError(MaskLoopError, ValueError):
    """Run-length counts violate the codec invariants."""


class PnmError(MaskLoopError, ValueError):
    """A PGM/PPM file is malformed or uses an unsupported variant."""


class DuplicateTaskIdError(MaskLoopError, ValueError):
    """A task manifest lists the same task id more than once."""


class ActionParseError(MaskLoopError, ValueError):
    """Action text does not match the grammar.

    ``code`` is one of ``empty_input``, ``unknown_verb``, ``out_of_range``,
    ``malformed_number``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class TemplateError(MaskLoopError, ValueError):
    """Unknown prompt template id."""


class FieldError(MaskLoopError, ValueError):
    """A field of JSON read from outside is missing or holds the wrong type.

    ``path`` names the field, such as ``steps[1].reward_before``, and
    ``problem`` says what is wrong with it.
    """

    def __init__(self, path: str, problem: str):
        super().__init__(f"{path}: {problem}" if path else problem)
        self.path = path
        self.problem = problem


class JsonlError(MaskLoopError, ValueError):
    """A JSONL record failed to parse or validate.

    ``line`` is the 1-based line number of the offending record in ``path``.
    """

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line


class ReplayMismatchError(MaskLoopError, RuntimeError):
    """A recorded trajectory holds steps past the end of its episode."""


class HookError(MaskLoopError, RuntimeError):
    """A training hook command failed."""


class RemoteError(MaskLoopError, RuntimeError):
    """Transport-level failure talking to a remote service."""


class ProtocolError(MaskLoopError, RuntimeError):
    """A remote service replied with something outside the protocol."""


class DegenerateInputError(MaskLoopError, ValueError):
    """Metric input admits no defined value (e.g. zero variance)."""
