"""Error classes raised by more than one module (`nn`, `metrics`, `baseline`)."""


class ShapeMismatchError(ValueError):
    pass


class LengthMismatchError(ValueError):
    pass
