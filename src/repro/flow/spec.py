"""Declarative pipeline descriptions: :class:`FlowSpec` and its script syntax.

A flow is a sequence of registered passes with options, plus a repetition
policy — exactly what Yosys flow scripts express (``opt_expr; opt_merge;
opt_muxtree; opt_clean``).  Specs are:

* **parseable** from a script string::

      FlowSpec.parse("opt_expr; opt_merge; smartly k=6 sat_threshold=32; opt_clean")

* **printable** back to that syntax (``str(spec)`` round-trips through
  :meth:`FlowSpec.parse`),
* **composable** programmatically (``spec + other``, :meth:`FlowSpec.then`),
* **instantiable** into fresh pass objects (:meth:`FlowSpec.build`) through
  the pass registry in :mod:`repro.opt.pass_base`.

Script grammar (statements split on ``;`` or newlines, ``#`` comments)::

    script    := statement (";" statement)*
    statement := "fixpoint" option*          -- repeat pipeline to a fixpoint
               | PASS_NAME option*           -- one registry pass invocation
    option    := KEY "=" VALUE | KEY         -- bare KEY means KEY=true

Values parse as ``int``, ``float``, ``true``/``false`` booleans, or plain
strings.  The paper's five configurations (``none``, ``yosys``,
``smartly-sat``, ``smartly-rebuild``, ``smartly``) are available as named
presets via :meth:`FlowSpec.preset`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.smartly import SmartlyOptions
from ..opt.pass_base import Pass, known_passes, make_pass, pass_option_defaults

#: statement name reserved for the repetition directive
FIXPOINT_DIRECTIVE = "fixpoint"


class FlowScriptError(ValueError):
    """A flow script failed to parse."""


def _parse_value(text: str) -> Any:
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _fits(value: Any, default: Any) -> bool:
    """Whether an option value has the kind of the option's default: a
    bool is not an int, an int may stand for a float, and an option whose
    default is None takes any value."""
    if default is None:
        return True
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class PassStep:
    """One pass invocation: a registry name plus constructor options."""

    pass_name: str
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, pass_name: str, **options: Any) -> "PassStep":
        for key, value in options.items():
            if isinstance(value, str) and (
                any(ch.isspace() for ch in value) or set(value) & set(";#='\"")
            ):
                # such a value could not survive str(spec) -> parse
                raise FlowScriptError(
                    f"option {key}={value!r} is not representable in flow-"
                    f"script syntax (whitespace/;/#/=/quotes)"
                )
        return cls(pass_name, tuple(sorted(options.items())))

    @property
    def options_dict(self) -> Dict[str, Any]:
        return dict(self.options)

    def instantiate(self) -> Pass:
        """Build a fresh pass object from the registry."""
        return make_pass(self.pass_name, **self.options_dict)

    def __str__(self) -> str:
        parts = [self.pass_name]
        parts += [f"{key}={_format_value(val)}" for key, val in self.options]
        return " ".join(parts)


def _parse_statement(statement: str) -> Tuple[str, Dict[str, Any]]:
    tokens = statement.split()
    name, raw_options = tokens[0], tokens[1:]
    options: Dict[str, Any] = {}
    for token in raw_options:
        if "=" in token:
            key, _, raw = token.partition("=")
            if not key or not raw:
                raise FlowScriptError(
                    f"malformed option {token!r} in statement {statement!r}"
                )
            options[key] = _parse_value(raw)
        else:
            options[token] = True  # bare flag
    return name, options


class FlowSpec:
    """An immutable, declarative optimization pipeline description."""

    def __init__(
        self,
        steps: Iterable[PassStep] = (),
        *,
        fixpoint: bool = False,
        max_rounds: int = 16,
        name: Optional[str] = None,
    ):
        self.steps: Tuple[PassStep, ...] = tuple(steps)
        self.fixpoint = bool(fixpoint)
        self.max_rounds = int(max_rounds)
        self.name = name

    # -- construction ----------------------------------------------------------

    @classmethod
    def parse(cls, script: str, name: Optional[str] = None) -> "FlowSpec":
        """Parse a Yosys-like flow script into a spec (see module docstring)."""
        steps: List[PassStep] = []
        fixpoint = False
        max_rounds = 16
        for raw_line in script.splitlines() or [script]:
            line = raw_line.split("#", 1)[0]
            for statement in line.split(";"):
                statement = statement.strip()
                if not statement:
                    continue
                pass_name, options = _parse_statement(statement)
                if pass_name == FIXPOINT_DIRECTIVE:
                    fixpoint = True
                    unknown = set(options) - {"max_rounds"}
                    if unknown:
                        raise FlowScriptError(
                            f"fixpoint takes only max_rounds, got {sorted(unknown)}"
                        )
                    rounds = options.get("max_rounds", max_rounds)
                    if not isinstance(rounds, int) or isinstance(rounds, bool) \
                            or rounds < 1:
                        raise FlowScriptError(
                            f"fixpoint max_rounds must be a positive integer, "
                            f"got {rounds!r}"
                        )
                    max_rounds = rounds
                    continue
                steps.append(PassStep.make(pass_name, **options))
        return cls(steps, fixpoint=fixpoint, max_rounds=max_rounds, name=name)

    @classmethod
    def preset(
        cls,
        name: str,
        options: Optional[SmartlyOptions] = None,
        **overrides: Any,
    ) -> "FlowSpec":
        """The paper's five configurations as named flows.

        ``options``/``overrides`` tune the smaRTLy stage
        (``FlowSpec.preset("smartly", k=6)``); they are ignored by the
        ``none``/``yosys`` presets.
        """
        if name not in PRESETS:
            raise ValueError(
                f"unknown optimizer {name!r}; choose from {tuple(PRESETS)}"
            )
        return PRESETS[name](options, overrides)

    # -- composition -----------------------------------------------------------

    def then(self, other: Union["FlowSpec", PassStep, str]) -> "FlowSpec":
        """Concatenate pipelines (fixpoint policy comes from ``self``)."""
        if isinstance(other, str):
            other = FlowSpec.parse(other)
        if isinstance(other, PassStep):
            extra: Tuple[PassStep, ...] = (other,)
        else:
            extra = other.steps
        return FlowSpec(
            self.steps + extra,
            fixpoint=self.fixpoint,
            max_rounds=self.max_rounds,
            name=None,
        )

    def __add__(self, other: Union["FlowSpec", PassStep, str]) -> "FlowSpec":
        return self.then(other)

    def with_step(self, pass_name: str, **options: Any) -> "FlowSpec":
        return self.then(PassStep.make(pass_name, **options))

    def with_fixpoint(self, max_rounds: int = 16) -> "FlowSpec":
        return FlowSpec(
            self.steps, fixpoint=True, max_rounds=max_rounds, name=self.name
        )

    # -- realisation -----------------------------------------------------------

    def build(self) -> List[Pass]:
        """Instantiate fresh pass objects (validates names and options)."""
        return [step.instantiate() for step in self.steps]

    def validate(self) -> None:
        """Raise if any step names an unregistered pass, gives it an
        option its constructor does not take, or gives an option a value
        of another kind than the option's default (a bool is not an int;
        an int may stand for a float); builds no pass."""
        known = set(known_passes())
        for step in self.steps:
            if step.pass_name not in known:
                raise FlowScriptError(
                    f"unknown pass {step.pass_name!r}; known: {sorted(known)}"
                )
            defaults = pass_option_defaults(step.pass_name)
            unknown = sorted(set(step.options_dict) - set(defaults))
            if unknown:
                raise FlowScriptError(
                    f"step {str(step)!r}: {step.pass_name} takes no option "
                    f"{', '.join(map(repr, unknown))}; it takes: "
                    f"{', '.join(sorted(defaults)) or 'none'}"
                )
            for key, value in step.options_dict.items():
                default = defaults[key]
                if not _fits(value, default):
                    raise FlowScriptError(
                        f"step {str(step)!r}: option {key} of "
                        f"{step.pass_name} takes {type(default).__name__} "
                        f"values, not {_format_value(value)}"
                    )

    # -- identity --------------------------------------------------------------

    @property
    def label(self) -> str:
        """Stable human-readable identity: preset name or script text."""
        return self.name if self.name is not None else str(self)

    def __str__(self) -> str:
        statements: List[str] = []
        if self.fixpoint:
            statements.append(f"{FIXPOINT_DIRECTIVE} max_rounds={self.max_rounds}")
        statements += [str(step) for step in self.steps]
        return "; ".join(statements)

    def __repr__(self) -> str:
        return f"FlowSpec({str(self)!r}, name={self.name!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowSpec):
            return NotImplemented
        return (
            self.steps == other.steps
            and self.fixpoint == other.fixpoint
            # max_rounds only matters when the pipeline repeats
            and (not self.fixpoint or self.max_rounds == other.max_rounds)
        )

    def __hash__(self) -> int:
        return hash(
            (self.steps, self.fixpoint, self.max_rounds if self.fixpoint else 1)
        )


# -- presets -------------------------------------------------------------------


def _smartly_preset(
    preset_name: str,
    options: Optional[SmartlyOptions],
    overrides: Dict[str, Any],
    **forced: Any,
) -> FlowSpec:
    """The smartly pipeline: the smartly step carries the resolved
    options that differ from the defaults, ``max_rounds`` caps the loop."""
    resolved = replace(
        options if options is not None else SmartlyOptions(),
        **{**overrides, **forced},
    )
    defaults = SmartlyOptions()
    step_options = {
        name: getattr(resolved, name)
        for name in pass_option_defaults("smartly")
        if getattr(resolved, name) != getattr(defaults, name)
    }
    return FlowSpec(
        (
            PassStep.make("opt_expr"),
            PassStep.make("opt_merge"),
            PassStep.make("smartly", **step_options),
            PassStep.make("opt_clean"),
        ),
        fixpoint=True,
        max_rounds=resolved.max_rounds,
        name=preset_name,
    )


PRESETS = {
    "none": lambda options, overrides: FlowSpec((), name="none"),
    "yosys": lambda options, overrides: FlowSpec(
        (
            PassStep.make("opt_expr"),
            PassStep.make("opt_merge"),
            PassStep.make("opt_muxtree"),
            PassStep.make("opt_clean"),
        ),
        fixpoint=True,
        max_rounds=16,
        name="yosys",
    ),
    "smartly-sat": lambda options, overrides: _smartly_preset(
        "smartly-sat", options, overrides, rebuild=False
    ),
    "smartly-rebuild": lambda options, overrides: _smartly_preset(
        "smartly-rebuild", options, overrides, sat=False
    ),
    "smartly": lambda options, overrides: _smartly_preset(
        "smartly", options, overrides
    ),
}

#: preset names in the paper's column order (Original, Yosys, SAT,
#: Rebuild, Full)
PRESET_NAMES = ("none", "yosys", "smartly-sat", "smartly-rebuild", "smartly")


def resolve_flow(flow: Union[str, FlowSpec],
                 options: Optional[SmartlyOptions] = None) -> FlowSpec:
    """Coerce a preset name, script string, or spec into a :class:`FlowSpec`."""
    if isinstance(flow, FlowSpec):
        return flow
    if flow in PRESETS:
        return FlowSpec.preset(flow, options=options)
    return FlowSpec.parse(flow)


__all__ = [
    "FIXPOINT_DIRECTIVE",
    "FlowScriptError",
    "FlowSpec",
    "PRESETS",
    "PRESET_NAMES",
    "PassStep",
    "resolve_flow",
]
