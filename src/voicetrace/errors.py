"""Exception types shared across the package."""


class FormatError(ValueError):
    """A file that is not in the format its reader expects. The message names the file."""


class AudioFormatError(FormatError):
    """Unsupported or malformed audio encoding (codec, bit depth, channels)."""


class AudioParseError(FormatError):
    """Structurally broken RIFF/WAVE container (truncation, missing chunks)."""


class WeightFormatError(FormatError):
    """Bad NSW1 container: wrong magic, version, truncation, or shape mismatch."""


class ThresholdsFormatError(FormatError):
    """thresholds.json that is not JSON or not the document calibrate writes."""


class FeatureFormatError(FormatError):
    """Feature CSV that is not the table extract writes (header, row width, cells)."""


class ManifestError(FormatError):
    """Malformed corpus manifest. Names the file and the 1-based offending line."""


class ConfigError(ValueError):
    """Bad experiment config. Names the file and the offending field."""


class StageError(RuntimeError):
    """A stage met a missing, damaged or stale input, or an output it cannot write. Names the stage."""

    def __init__(self, stage, message):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
