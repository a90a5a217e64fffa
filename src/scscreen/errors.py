"""Error classes raised by more than one module (`nn`, `metrics`,
`baseline`, `screen`)."""


class ShapeMismatchError(ValueError):
    pass


class LengthMismatchError(ValueError):
    pass


class UnknownFieldError(ValueError):
    pass
