"""Exception types shared across the package."""


class AudioFormatError(ValueError):
    """Unsupported or malformed audio encoding (codec, bit depth, channels)."""


class AudioParseError(ValueError):
    """Structurally broken RIFF/WAVE container (truncation, missing chunks)."""


class WeightFormatError(ValueError):
    """Bad NSW1 container: wrong magic, version, truncation, or shape mismatch."""


class ThresholdsFormatError(ValueError):
    """thresholds.json that is not JSON or not the document calibrate writes."""


class ManifestError(ValueError):
    """Malformed corpus manifest. Carries the 1-based offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConfigError(ValueError):
    """Bad experiment config. Names the file and the offending field."""


class StageError(RuntimeError):
    """A pipeline stage is missing a prerequisite artifact. Names the stage."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
