"""FlowSpec: script parsing, round-tripping, presets, composition."""

import pytest

from repro.core.smartly import SmartlyOptions
from repro.flow import (
    FlowScriptError,
    FlowSpec,
    PRESET_NAMES,
    PassStep,
    resolve_flow,
)


class TestParse:
    def test_basic_script(self):
        spec = FlowSpec.parse("opt_expr; opt_merge; opt_clean")
        assert [s.pass_name for s in spec.steps] == [
            "opt_expr", "opt_merge", "opt_clean"
        ]
        assert not spec.fixpoint

    def test_options_typed(self):
        spec = FlowSpec.parse("smartly k=6 sat_threshold=32 min_gain=1")
        (step,) = spec.steps
        assert step.options_dict == {
            "k": 6, "sat_threshold": 32, "min_gain": 1
        }
        assert all(isinstance(v, int) for v in step.options_dict.values())

    def test_bool_and_bare_flags(self):
        spec = FlowSpec.parse("smartly sat=false rebuild")
        (step,) = spec.steps
        assert step.options_dict == {"sat": False, "rebuild": True}

    def test_newlines_and_comments(self):
        spec = FlowSpec.parse(
            """
            # cleanup first
            opt_expr
            opt_merge; opt_clean  # inline too
            """
        )
        assert [s.pass_name for s in spec.steps] == [
            "opt_expr", "opt_merge", "opt_clean"
        ]

    def test_fixpoint_directive(self):
        spec = FlowSpec.parse("fixpoint max_rounds=4; opt_expr; opt_clean")
        assert spec.fixpoint and spec.max_rounds == 4

    def test_fixpoint_rejects_unknown_options(self):
        with pytest.raises(FlowScriptError):
            FlowSpec.parse("fixpoint rounds=4; opt_expr")

    def test_malformed_option_rejected(self):
        with pytest.raises(FlowScriptError):
            FlowSpec.parse("smartly k=")

    @pytest.mark.parametrize("rounds", ["foo", "2.5", "0", "true"])
    def test_fixpoint_rejects_non_integer_rounds(self, rounds):
        with pytest.raises(FlowScriptError):
            FlowSpec.parse(f"fixpoint max_rounds={rounds}; opt_expr")

    def test_unrepresentable_option_value_rejected(self):
        from repro.flow import PassStep

        with pytest.raises(FlowScriptError):
            PassStep.make("smartly", tag="a b")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "script",
        [
            "opt_expr; opt_merge; smartly k=6 sat_threshold=32; opt_clean",
            "fixpoint max_rounds=4; opt_expr; smartly sat=false; opt_clean",
            "opt_muxtree",
            "smartly rebuild=false max_conflicts=100",
        ],
    )
    def test_parse_str_parse(self, script):
        first = FlowSpec.parse(script)
        again = FlowSpec.parse(str(first))
        assert again == first
        assert str(again) == str(first)

    def test_presets_round_trip(self):
        for name in PRESET_NAMES:
            spec = FlowSpec.preset(name)
            assert FlowSpec.parse(str(spec)) == spec


class TestPresets:
    def test_legacy_names_available(self):
        assert PRESET_NAMES == (
            "none", "yosys", "smartly-sat", "smartly-rebuild", "smartly"
        )

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            FlowSpec.preset("magic")

    def test_yosys_preset_is_baseline_pipeline(self):
        spec = FlowSpec.preset("yosys")
        assert [s.pass_name for s in spec.steps] == [
            "opt_expr", "opt_merge", "opt_muxtree", "opt_clean"
        ]
        assert spec.fixpoint and spec.max_rounds == 16

    def test_smartly_preset_wraps_with_cleanup(self):
        spec = FlowSpec.preset("smartly")
        assert [s.pass_name for s in spec.steps] == [
            "opt_expr", "opt_merge", "smartly", "opt_clean"
        ]
        assert spec.max_rounds == SmartlyOptions().max_rounds

    def test_variant_presets_force_stage_selection(self):
        sat = next(s for s in FlowSpec.preset("smartly-sat").steps
                   if s.pass_name == "smartly")
        rebuild = next(s for s in FlowSpec.preset("smartly-rebuild").steps
                       if s.pass_name == "smartly")
        assert sat.options_dict["rebuild"] is False
        assert rebuild.options_dict["sat"] is False

    def test_overrides_propagate(self):
        spec = FlowSpec.preset("smartly", k=6, max_rounds=2)
        step = next(s for s in spec.steps if s.pass_name == "smartly")
        assert step.options_dict == {"k": 6}
        assert spec.max_rounds == 2

    def test_options_object_not_mutated(self):
        opts = SmartlyOptions()
        FlowSpec.preset("smartly-sat", options=opts, k=9)
        assert opts.k == 4 and opts.rebuild is True

    def test_none_preset_is_empty(self):
        assert FlowSpec.preset("none").steps == ()


class TestCompositionAndBuild:
    def test_then_and_add(self):
        spec = FlowSpec.parse("opt_expr") + "opt_merge; opt_clean"
        assert [s.pass_name for s in spec.steps] == [
            "opt_expr", "opt_merge", "opt_clean"
        ]
        spec = spec.then(PassStep.make("smartly", k=2))
        assert spec.steps[-1].pass_name == "smartly"

    def test_with_step_and_fixpoint(self):
        spec = FlowSpec().with_step("opt_expr").with_fixpoint(max_rounds=3)
        assert spec.fixpoint and spec.max_rounds == 3

    def test_build_instantiates_registered_passes(self):
        passes = FlowSpec.parse("opt_expr; smartly k=2").build()
        assert [p.name for p in passes] == ["opt_expr", "smartly"]
        assert passes[1].options.k == 2

    def test_validate_rejects_unknown_pass(self):
        spec = FlowSpec.parse("opt_expr; nonsense k=1")
        with pytest.raises(FlowScriptError):
            spec.validate()

    def test_validate_checks_option_names_against_the_pass(self):
        FlowSpec.parse(
            "opt_clean remove_wires=false; smartly_sat k=2; "
            "smartly sat_threshold=8 rebuild=false"
        ).validate()
        # smartly takes the SmartlyOptions fields, not its constructor's
        # ``options`` object, and not max_rounds, a preset's loop cap
        for script in ("smartly options=1", "smartly_sat max_rounds=2",
                       "opt_muxtree k=2",
                       "fixpoint; opt_expr; smartly max_rounds=1"):
            with pytest.raises(FlowScriptError, match="takes no option"):
                FlowSpec.parse(script).validate()

    def test_validate_checks_option_values_against_the_default(self):
        """A value must have the kind of the option's default (the
        constructor's, or for smartly the SmartlyOptions field's): a bool
        is not an int, and an int may stand for a float."""
        FlowSpec.parse(
            "smartly k=6 sat=false; smartly_sat max_conflicts=10; "
            "smartly_rebuild max_height_factor=2 min_gain=0; "
            "opt_merge merge_dff=true"
        ).validate()
        for script, option in (
            ("smartly k=abc", "k"),
            ("smartly k=true", "k"),
            ("smartly k=1.5", "k"),
            ("smartly sat=1", "sat"),
            ("smartly_sat data_k=two", "data_k"),
            ("smartly_rebuild max_height_factor=false", "max_height_factor"),
            ("opt_clean remove_wires=0", "remove_wires"),
        ):
            with pytest.raises(FlowScriptError) as err:
                FlowSpec.parse(script).validate()
            assert str(err.value).startswith(
                f"step {script!r}: option {option} of "
            ), str(err.value)

    def test_build_fresh_instances(self):
        spec = FlowSpec.parse("opt_clean")
        assert spec.build()[0] is not spec.build()[0]


class TestResolve:
    def test_preset_name(self):
        assert resolve_flow("yosys").name == "yosys"

    def test_script_string(self):
        spec = resolve_flow("opt_expr; opt_clean")
        assert [s.pass_name for s in spec.steps] == ["opt_expr", "opt_clean"]

    def test_spec_passthrough(self):
        spec = FlowSpec.parse("opt_expr")
        assert resolve_flow(spec) is spec

    def test_label(self):
        assert FlowSpec.preset("smartly").label == "smartly"
        assert FlowSpec.parse("opt_expr").label == "opt_expr"
