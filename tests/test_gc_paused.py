"""The entry points run with the cyclic collector off (``ir.gc_paused``):
it is off inside each call, back on after the call returns or raises, and
left off for a caller that turned it off; a guarded call nested in another
leaves it off for the rest of the outer call."""

import gc
import sys

import pytest

from artpta import (
    REC,
    MalformedArtworkError,
    ParseError,
    TamperKind,
    analyze_inter,
    decode,
    emit_artwork,
    encode,
    optimize_artwork,
    parse_artwork,
    parse_program,
    regen_inter,
    rq2_campaign,
    tamper,
)
from artpta import artwork, consumer, ir, producer

tamper_module = sys.modules["artpta.tamper"]  # ``artpta.tamper`` is the function

P = parse_program(REC)
R = analyze_inter(P)
A = emit_artwork(P, R)
DATA = encode(A)

# entry point: (module, a binding its body calls, the call)
GUARDED = {
    "parse_program": (ir, "_read_lines", lambda: parse_program(REC)),
    "analyze_inter": (producer, "_method_pass", lambda: analyze_inter(P)),
    "emit_artwork": (producer, "validate_result", lambda: emit_artwork(P, R)),
    "optimize_artwork": (producer, "carried_fixed_point", lambda: optimize_artwork(P, A)),
    "encode": (artwork, "_scoped", lambda: encode(A)),
    "decode": (artwork, "identifier_tables", lambda: decode(DATA, P)),
    "parse_artwork": (artwork, "_read_artwork", lambda: parse_artwork(DATA)),
    "regen_inter": (consumer, "regenerate", lambda: regen_inter(P, A)),
    "tamper": (tamper_module, "_with_entry", lambda: tamper(A, TamperKind.REMOVE_EDGE, 7)),
    "rq2_campaign": (tamper_module, "tamper", lambda: rq2_campaign(P, A, 2, 1)),
}


@pytest.fixture
def collector_state():
    """Restores the collector's state after the test, whatever it does."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _recording(monkeypatch, module, name):
    """Patch ``module.name`` to record ``gc.isenabled()`` at each call."""
    seen = []
    original = getattr(module, name)

    def recorded(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return seen


@pytest.mark.parametrize("entry", GUARDED)
def test_the_collector_is_off_inside_and_on_after(entry, monkeypatch, collector_state):
    module, binding, call = GUARDED[entry]
    seen = _recording(monkeypatch, module, binding)
    gc.enable()
    call()
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("entry", GUARDED)
def test_a_caller_that_turned_it_off_keeps_it_off(entry, monkeypatch, collector_state):
    module, binding, call = GUARDED[entry]
    seen = _recording(monkeypatch, module, binding)
    gc.disable()
    call()
    assert seen and not any(seen)
    assert not gc.isenabled()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: decode(b"ART/2\n", P), MalformedArtworkError),
        (lambda: parse_program("method main( {"), ParseError),
    ],
    ids=["decode", "parse_program"],
)
def test_the_collector_is_back_on_after_a_raise(call, error, collector_state):
    gc.enable()
    with pytest.raises(error):
        call()
    assert gc.isenabled()


def test_a_nested_call_does_not_turn_it_on_early(monkeypatch, collector_state):
    # add-edge tampering calls ``emit_artwork``, itself guarded, and then
    # ``_has_more_entries``: the collector is still off there.
    nested = _recording(monkeypatch, tamper_module, "emit_artwork")
    after = _recording(monkeypatch, tamper_module, "_has_more_entries")
    gc.enable()
    tamper(A, TamperKind.ADD_EDGE, 3, program=P)
    assert nested and after and not any(nested + after)
    assert gc.isenabled()


def test_the_guard_keeps_the_function_s_name_and_doc():
    assert parse_program.__name__ == "parse_program"
    assert parse_program.__doc__.startswith("Parse IR text")
    assert parse_program.__wrapped__.__name__ == "parse_program"
