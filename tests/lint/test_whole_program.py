"""Whole-program analysis: cross-module rules and their call chains.

Each rule family gets a seeded-violation fixture that must (a) fail
with a finding naming the full call chain and (b) pass once a reasoned
suppression lands at one end of that chain.
"""

import json

from tests.lint.conftest import rules_fired

# ----------------------------------------------------------------- fixtures

#: Kernel module whose chunk body delegates the write to a helper in a
#: different (non-kernel) module.
_KERNEL_CALLER = """\
    from repro.support import scatter


    def footprint(n):
        return AccessSet("alpha").writes("out", None)


    def chunk(lo, hi, colors, out):
        out[lo] = 0
        scatter(colors, lo, hi)
    """

_KERNEL_HELPER = """\
    def scatter(arr, lo, hi):
        arr[lo:hi] = 1
    """

_OBS_CALLER = """\
    from repro.telemetry import note


    def step(state):
        note(None, 1)
        return state
    """

_OBS_HELPER = """\
    def note(trace, value):
        trace.hit(value)
    """


# ------------------------------------------------- static footprints family


def test_transitive_undeclared_write_names_full_chain(run_lint):
    result = run_lint({"repro/kernels/alpha.py": _KERNEL_CALLER,
                       "repro/support.py": _KERNEL_HELPER})
    hits = [f for f in result.findings
            if f.rule == "fp-undeclared-write"]
    assert len(hits) == 1
    finding = hits[0]
    assert finding.path == "repro/kernels/alpha.py"
    assert "'colors'" in finding.message
    assert [h.path for h in finding.chain] == [
        "repro/kernels/alpha.py", "repro/support.py"]
    assert "repro/support.py" in finding.message   # chain is rendered


def test_transitive_footprint_suppressed_at_caller(run_lint):
    caller = """\
        from repro.support import scatter


        def footprint(n):
            return AccessSet("alpha").writes("out", None)


        def chunk(lo, hi, colors, out):
            out[lo] = 0
            # repro: ignore[fp-undeclared-write] replay
            # bookkeeping, not simulated shared state
            scatter(colors, lo, hi)
        """
    result = run_lint({"repro/kernels/alpha.py": caller,
                       "repro/support.py": _KERNEL_HELPER})
    assert "fp-undeclared-write" not in rules_fired(result)
    assert any(f.rule == "fp-undeclared-write"
               for f in result.suppressed)


def test_overbroad_footprint_warns_on_dead_declaration(run_lint):
    result = run_lint({"repro/kernels/beta.py": """\
        def footprint(n):
            return AccessSet("beta").writes("ghost", None)


        def chunk(lo, hi):
            return lo + hi
        """})
    hits = [f for f in result.findings
            if f.rule == "fp-overbroad-footprint"]
    assert len(hits) == 1
    assert "'ghost'" in hits[0].message
    assert result.ok                              # warning, not error


def test_closure_write_to_enclosing_parameter_fires(run_lint):
    result = run_lint({"repro/kernels/delta.py": """\
        def footprint():
            return AccessSet("delta").writes("colors", None)


        def run(spec, colors, write_time):
            def body(lo, hi):
                colors[lo] = 1
                write_time[lo] = 1

            def scratch(lo, hi):
                write_time = [0] * hi
                write_time[lo] = 1

            return spec.parallel_for(body, access=footprint())
        """})
    hits = [f for f in result.findings
            if f.rule == "fp-undeclared-write"]
    assert [(f.line, "'write_time'" in f.message) for f in hits] \
        == [(8, True)]                # scratch rebinds its own write_time


def test_def_in_except_handler_is_summarised(run_lint):
    result = run_lint({"repro/kernels/epsilon.py": """\
        def footprint():
            return AccessSet("epsilon").writes("colors", None)


        try:
            from repro.fast import replay
        except ImportError:
            def replay(colors, write_time, idx):
                colors[idx] = 1
                write_time[idx] = 2.0
        """, "repro/sim/fallback.py": """\
        try:
            from repro.fast import step
        except ImportError:
            def step(trace, value):
                trace.hit(value)
        """})
    hits = sorted((f.rule, f.path, f.line) for f in result.findings)
    assert hits == [("fp-undeclared-write", "repro/kernels/epsilon.py", 10),
                    ("obs-ungated", "repro/sim/fallback.py", 5)]


def test_benign_race_is_not_a_write_declaration(run_lint):
    result = run_lint({"repro/kernels/gamma.py": """\
        from repro.support import scatter


        def footprint(n):
            return AccessSet("gamma").benign_race("colors", "speculative")


        def chunk(lo, hi, colors):
            scatter(colors, lo, hi)
        """, "repro/support.py": _KERNEL_HELPER})
    hits = [f for f in result.findings
            if f.rule == "fp-undeclared-write"]
    assert len(hits) == 1
    assert "'colors'" in hits[0].message
    assert "fp-overbroad-footprint" not in rules_fired(result)


# ----------------------------------------------------- crash-safety family


def test_bare_write_under_durable_root_fails(run_lint):
    result = run_lint({"repro/campaign/saver.py": """\
        def save(path, text):
            with open(path, "w") as fh:
                fh.write(text)
        """})
    assert "crash-bare-write" in rules_fired(result)


def test_unfenced_replace_carries_open_and_replace_hops(run_lint):
    result = run_lint({"repro/graphstore/saver.py": """\
        import os


        def publish(path, text):
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        """})
    hits = [f for f in result.findings
            if f.rule == "crash-unfenced-replace"]
    assert len(hits) == 1
    assert [h.note for h in hits[0].chain][-1] == "os.replace"


def test_fsync_fence_passes(run_lint):
    result = run_lint({"repro/graphstore/saver.py": """\
        import os


        def publish(path, text):
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        """})
    assert not result.findings


def test_append_mode_is_a_bare_write(run_lint):
    result = run_lint({"repro/graphstore/saver.py": """\
        def journal_append(path, line):
            with open(path, "a") as fh:
                fh.write(line)
        """})
    hits = [f for f in result.findings if f.rule == "crash-bare-write"]
    assert len(hits) == 1 and "journal_append" in hits[0].message


def test_crash_rule_suppressed_with_reason(run_lint):
    result = run_lint({"repro/campaign/saver.py": """\
        def save(path, text):
            # repro: ignore[crash-bare-write] chaos harness corrupts
            # stored objects on purpose
            with open(path, "w") as fh:
                fh.write(text)
        """})
    assert "crash-bare-write" not in rules_fired(result)
    assert len(result.suppressed) == 1


# ----------------------------------------------- observer-gating family


def test_ungated_helper_reached_from_sim_scope(run_lint):
    result = run_lint({"repro/sim/engine.py": _OBS_CALLER,
                       "repro/telemetry.py": _OBS_HELPER})
    hits = [f for f in result.findings
            if f.rule == "obs-ungated"]
    assert len(hits) == 1
    finding = hits[0]
    assert finding.path == "repro/sim/engine.py"
    assert [h.path for h in finding.chain] == [
        "repro/sim/engine.py", "repro/telemetry.py"]


def test_gated_helper_is_clean(run_lint):
    result = run_lint({"repro/sim/engine.py": _OBS_CALLER,
                       "repro/telemetry.py": """\
        def note(trace, value):
            if trace is not None:
                trace.hit(value)
        """})
    assert "obs-ungated" not in rules_fired(result)


def test_obs_transitive_suppressed_at_helper_end(run_lint):
    helper = """\
        def note(trace, value):
            # repro: ignore[obs-ungated] caller owns the gate
            trace.hit(value)
        """
    result = run_lint({"repro/sim/engine.py": _OBS_CALLER,
                       "repro/telemetry.py": helper})
    assert "obs-ungated" not in rules_fired(result)


def test_in_scope_ungated_helper_reported_once(run_lint):
    caller = _OBS_CALLER.replace("repro.telemetry", "repro.machine.telemetry")
    result = run_lint({"repro/sim/engine.py": caller,
                       "repro/machine/telemetry.py": _OBS_HELPER})
    hits = [(f.path, f.line, f.chain) for f in result.findings
            if f.rule == "obs-ungated"]
    assert hits == [("repro/machine/telemetry.py", 2, ())]


def test_run_in_executor_escapes_reachability(run_lint):
    # A callback handed to an executor is an argument, not a call edge,
    # so the ungated helper is not reachable from the SIM-scope caller.
    result = run_lint({"repro/sim/engine.py": """\
        from repro.telemetry import note


        def step(loop, state):
            loop.run_in_executor(None, note, None, 1)
            return state
        """, "repro/telemetry.py": _OBS_HELPER})
    assert "obs-ungated" not in rules_fired(result)


# ------------------------------------------------------------------ chains


def test_chain_survives_json_roundtrip(run_lint):
    result = run_lint({"repro/kernels/alpha.py": _KERNEL_CALLER,
                       "repro/support.py": _KERNEL_HELPER})
    payload = result.to_dict()
    chains = [f["chain"] for f in payload["findings"]
              if f["rule"] == "fp-undeclared-write"]
    assert chains and [h["path"] for h in chains[0]] == [
        "repro/kernels/alpha.py", "repro/support.py"]
    json.dumps(payload)              # must be serialisable as-is
