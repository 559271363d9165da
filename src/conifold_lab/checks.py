"""Refusals of a caller's input and named checks of measured values.  Every module and every
subcommand uses them, so they need only the standard library: an exact request loads no numpy."""


def abbreviated(text: str) -> str:
    """A value's text as a refusal quotes it: whole up to 32 characters,
    otherwise its first 8 characters and its length, so that no input makes
    a long message."""
    return text if len(text) <= 32 else f"{text[:8]}... ({len(text)} characters)"


class InputError(ValueError):
    """A refusal of a caller's input; names holds the parameters it quotes."""

    def __init__(self, message: str, *names: str):
        super().__init__(message)
        self.names = names


def require_within(what: str, value, lo, hi, *names: str) -> None:
    """Refuse value outside [lo, hi] (NaN too) as an InputError naming names."""
    if not lo <= value <= hi:
        raise InputError(f"{what} must lie in [{lo!r}, {hi!r}], got {abbreviated(repr(value))}", *names)


class Checks:
    """Named checks, kept in the order they were made.  Criteria read the
    `details` and `failures` views; command-line reports read `items`."""

    def __init__(self) -> None:
        self._checks: list[tuple[str, bool, str, dict]] = []  # name, passed, failure, detail

    def _add(self, name: str, passed, failure: str, **detail) -> None:
        self._checks.append((name, bool(passed), failure, detail))

    def le(self, name: str, measured, bound) -> None:
        """Passes when measured <= bound; a NaN measurement fails."""
        failure = f"{name}: {measured!r} > {bound!r}"
        self._add(name, measured <= bound, failure, measured=measured, tolerance=bound)

    def true(self, name: str, condition, measured=None) -> None:
        measured = bool(condition) if measured is None else measured
        self._add(name, condition, f"{name}: expected true", measured=measured)

    def equal(self, name: str, measured, expected) -> None:
        failure = f"{name}: {measured!r} != {expected!r}"
        self._add(name, measured == expected, failure, measured=measured, expected=expected)

    def decreasing(self, name: str, values, measured=None) -> None:
        """Passes when each value is below the one before it (a NaN fails); measured defaults to the values."""
        values = list(values)
        self.true(name, all(b < a for a, b in zip(values, values[1:])), values if measured is None else measured)

    def note(self, name: str, measured) -> None:
        """Record a measurement that has no pass condition."""
        self._add(name, True, "", measured=measured)

    @property
    def details(self) -> dict:
        return {name: detail for name, _, _, detail in self._checks}

    @property
    def failures(self) -> list[str]:
        return [failure for _, passed, failure, _ in self._checks if not passed]

    @property
    def items(self) -> list[dict]:
        return [{"name": name, "passed": passed, "tolerance": detail.get("tolerance"),
                 "measured": detail["measured"]} for name, passed, _, detail in self._checks]

    @property
    def all_passed(self) -> bool:
        return all(passed for _, passed, _, _ in self._checks)


# C03's gates on the ODE and Monge-Ampere residuals, C07's on the period's relative error and
# the tau annulus of C06's sups; the metric and slag subcommands default to the same values
ODE_RESIDUAL_GATE, MA_RESIDUAL_GATE, PERIOD_ERROR_GATE = 1e-8, 1e-7, 1e-4
CONVERGENCE_ANNULUS = (1.0, 10.0)
