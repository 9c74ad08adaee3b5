"""Exception types shared across the package.

Every exception carries a stable ``code`` string so the CLI can print
one-line diagnostics without matching on class names.
"""


class PikdomError(Exception):
    code = "E_ERROR"


class ParseError(PikdomError):
    code = "E_PARSE"


class DuplicateIntervalError(PikdomError):
    code = "E_DUPLICATE"


class NotProperError(PikdomError):
    code = "E_NOT_PROPER"


class NegativeCostError(PikdomError):
    code = "E_NEG_COST"


class VertexIndexError(PikdomError):
    code = "E_INDEX"


class EmptyGraphError(PikdomError):
    code = "E_EMPTY"


class ParamError(PikdomError):
    code = "E_PARAM"


class TooLargeError(PikdomError):
    code = "E_TOO_LARGE"


class PreconditionError(PikdomError):
    code = "E_PRECONDITION"


class NotArcError(PikdomError):
    code = "E_NOT_ARC"


class NotPathError(PikdomError):
    code = "E_NOT_PATH"


class BudgetError(PikdomError):
    code = "E_BUDGET"


class OutOfMemoryError(PikdomError):
    """An allocation failed: the work the input asks for does not fit in the
    memory the process may use."""

    code = "E_MEMORY"
