"""The C tier's interaction loops make one pass per commit: the gather
shares the first commit's pass.

A text guard on ``emit_c_tiled``'s output.  Per interaction loop ``p``
and schedule form, the unit holds exactly ``len(commits)`` loops over
``off<p>`` — index form ``for (int64_t _k = off<p>[_t]; ...``, range
form ``for (int64_t <ivar> = off<p>[_t]; ...`` — and renders the
payload once per form.  A separate gather pass (the ``c-5`` shape) is
one pass too many; a later pass that recomputes the payload instead of
reading ``scratch`` renders it twice.  The emitted-source freeze cannot
hold this shape: it is regenerated on every emitter version move.
"""

import pytest

from repro.lowering import emit_c
from repro.lowering.executor import _rewritten

KERNELS = ("moldyn", "nbf", "irreg")


def _payload(loop):
    ivar = loop.index_var
    via = emit_c._idx_via(ivar)
    return emit_c._render(loop.fissioned.payload, ivar, via)


def pass_findings(program, source):
    """One line per interaction loop whose passes break the rule."""
    findings = []
    for pos, loop in enumerate(program.loops):
        if loop.domain == "nodes":
            continue
        ivar = loop.index_var
        expected = len(loop.fissioned.commits)
        forms = {
            "index": f"for (int64_t _k = off{pos}[_t]; ",
            "range": f"for (int64_t {ivar} = off{pos}[_t]; ",
        }
        for form, head in forms.items():
            passes = source.count(head)
            if passes != expected:
                findings.append(
                    f"{loop.label}: {passes} {form}-form passes, "
                    f"expected {expected}"
                )
        renders = source.count(_payload(loop))
        if renders != len(forms):
            findings.append(
                f"{loop.label}: payload rendered {renders} times, "
                f"expected {len(forms)}"
            )
    return findings


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("kernel", KERNELS)
def test_each_interaction_loop_makes_one_pass_per_commit(kernel, sanitize):
    program = _rewritten(kernel).program
    assert any(loop.fissioned for loop in program.loops)
    source = emit_c.emit_c_tiled(program, sanitize=sanitize)
    assert not pass_findings(program, source)


#: nbf's interaction loop as the ``c-5`` emitter rendered it: a gather
#: pass into ``scratch``, then one pass per commit.
C5_NBF = """
    if (iters0) {
        for (int64_t _k = off0[_t]; _k < off0[_t + 1]; ++_k) {
            int64_t j = iters0[_k];
            scratch[_k] = ((0.25 * x[left[j]]) * x[right[j]]);
        }
    } else {
        for (int64_t j = off0[_t]; j < off0[_t + 1]; ++j) {
            scratch[j] = ((0.25 * x[left[j]]) * x[right[j]]);
        }
    }
    if (iters0) {
        for (int64_t _k = off0[_t]; _k < off0[_t + 1]; ++_k) {
            int64_t j = iters0[_k];
            f[left[j]] = f[left[j]] + scratch[_k];
        }
    } else {
        for (int64_t j = off0[_t]; j < off0[_t + 1]; ++j) {
            f[left[j]] = f[left[j]] + scratch[j];
        }
    }
    if (iters0) {
        for (int64_t _k = off0[_t]; _k < off0[_t + 1]; ++_k) {
            int64_t j = iters0[_k];
            f[right[j]] = f[right[j]] + (-scratch[_k]);
        }
    } else {
        for (int64_t j = off0[_t]; j < off0[_t + 1]; ++j) {
            f[right[j]] = f[right[j]] + (-scratch[j]);
        }
    }
"""


def test_guard_flags_a_separate_gather_pass():
    program = _rewritten("nbf").program
    assert pass_findings(program, C5_NBF) == [
        "Lj: 3 index-form passes, expected 2",
        "Lj: 3 range-form passes, expected 2",
    ]


def test_guard_flags_a_recomputed_payload():
    """The second commit pass evaluating the payload again instead of
    reading ``scratch``: the pass count holds, the rendering count does
    not."""
    program = _rewritten("nbf").program
    (loop,) = [loop for loop in program.loops if loop.fissioned]
    payload = _payload(loop)
    source = emit_c.emit_c_tiled(program)
    for k in ("_k", "j"):
        source = source.replace(f"(-scratch[{k}])", f"(-{payload})")
    assert pass_findings(program, source) == [
        "Lj: payload rendered 4 times, expected 2"
    ]
