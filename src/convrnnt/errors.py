"""Exception types shared across the package, and the text-file reader
that raises them."""


class ShapeError(ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class DataError(ValueError):
    """Input data (audio, manifest, vocab, tokens) violates a precondition."""


class TrainingError(RuntimeError):
    """Training hit an unrecoverable state (e.g. a non-finite loss)."""


def read_text(path, error) -> str:
    """The UTF-8 text of the file at `path`; `error`, naming the path, if it is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
