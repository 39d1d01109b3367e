"""Exception hierarchy shared by the whole package.

Every error carries a short machine-parsable ``code`` so the CLI can emit
``error:<code>: <message>`` lines with a stable format.
"""


class GrouperError(Exception):
    code = "error"

    def __init__(self, message):
        super().__init__(message)
        self.message = message


class MalformedPermutation(GrouperError):
    code = "malformed-permutation"


class ClosureCapExceeded(GrouperError):
    code = "closure-cap-exceeded"


class OrderCapExceeded(GrouperError):
    code = "order-cap-exceeded"


class UnsupportedFamily(GrouperError):
    code = "unsupported-family"


class NotNormalError(GrouperError):
    code = "not-normal"


class EnumerationCapError(GrouperError):
    code = "enumeration-cap"


class EmptyClassError(GrouperError):
    code = "empty-class"


class NonInjectiveInput(GrouperError):
    code = "non-injective-input"


class SpecParseError(GrouperError):
    code = "spec-parse"

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, col {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownFormat(GrouperError):
    code = "unknown-format"


class MissingFile(GrouperError):
    code = "missing-file"


class UnreadableInput(GrouperError):
    code = "unreadable-input"


class MalformedHom(GrouperError):
    code = "malformed-hom"


class InvalidOption(GrouperError):
    code = "invalid-option"


class UnknownAssertFlag(GrouperError):
    code = "unknown-assert-flag"


class NoInjectiveHom(GrouperError):
    code = "no-injective-hom"
