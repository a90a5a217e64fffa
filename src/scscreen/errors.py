"""Error classes raised by more than one module (`nn`, `metrics`,
`baseline`, `screen`)."""


class EmptyDatasetError(ValueError):
    pass


class ShapeMismatchError(ValueError):
    pass


class LengthMismatchError(ValueError):
    pass


class UnknownFieldError(ValueError):
    pass


class UnknownValueError(ValueError):
    """A name that is no member of the enum a config value takes."""

    def __init__(self, path: str, value, enum_cls):
        known = ", ".join(m.name for m in enum_cls)
        super().__init__(f"{path}: unknown value {value!r} (known: {known})")
