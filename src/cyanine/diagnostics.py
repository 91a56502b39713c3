"""Positioned error/warning records shared by every compilation stage."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int
    message: str
    severity: str = "error"  # "error" | "warning"
    filename: str = "<source>"

    def format(self):
        return f"{self.filename}:{self.line}:{self.col}: {self.severity}: {self.message}"


@dataclass
class Reporter:
    filename: str = "<source>"
    items: list = field(default_factory=list)
    _outer: list = field(default_factory=list, repr=False, compare=False)

    def error(self, line, col, message):
        self.items.append(Diagnostic(line, col, message, "error", self.filename))

    def warning(self, line, col, message):
        self.items.append(Diagnostic(line, col, message, "warning", self.filename))

    def extend(self, other):
        self.items.extend(other.items)

    def file(self, filename):
        """`with reporter.file(name):` names the diagnostics reported inside
        the block after `name`."""
        self._outer.append(self.filename)
        self.filename = filename
        return self

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.filename = self._outer.pop()

    @property
    def errors(self):
        return [d for d in self.items if d.severity == "error"]

    def has_errors(self):
        return any(d.severity == "error" for d in self.items)

    def sorted(self):
        """Each diagnostic once (a mixin's own bodies and its flattened
        copies are checked alike), by file and position."""
        return sorted(dict.fromkeys(self.items), key=lambda d: (d.filename, d.line, d.col))

    def format_all(self):
        return "\n".join(d.format() for d in self.sorted())
