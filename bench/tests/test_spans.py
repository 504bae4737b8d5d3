"""Span accounting on synthetic timestamps, and restoring wrapped entry points."""

import contextlib
import io
import json

import child
import spans


class Toy:
    def outer(self, job):
        self.inner()
        self.inner()
        return job

    def inner(self):
        return None


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_child_coverage():
    original_outer, original_inner = Toy.outer, Toy.inner
    # window opens at 0; outer 1..11 holds inner 2..4 and 5..8; window closes at 13
    tracer = spans.Tracer(clock=fake_clock([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 11.0, 13.0]))
    tracer.wrap(Toy, "outer", "outer", request=lambda args: args[1])
    tracer.wrap(Toy, "inner", "inner")
    tracer.start()
    assert Toy().outer(7) == 7
    tracer.stop()
    tracer.restore()
    assert Toy.outer is original_outer and Toy.inner is original_inner

    layers = tracer.layers()
    assert layers["outer"].calls == 1 and layers["inner"].calls == 2
    assert layers["outer"].wall_s == 10.0
    assert layers["outer"].self_s == 10.0 - (2.0 + 3.0)
    assert layers["inner"].self_s == layers["inner"].wall_s == 5.0
    assert tracer.unattributed_s() == 13.0 - 10.0

    by_layer = {}
    for span in tracer.spans:
        by_layer.setdefault(span.layer, []).append(span)
    (root,) = by_layer["outer"]
    assert root.parent is None and root.request == 7
    for span in by_layer["inner"]:
        assert span.parent == root.span_id and span.request == 7
    covered = sum(c.end - c.start for c in by_layer["inner"])
    assert layers["outer"].self_s == (root.end - root.start) - covered


def test_sampled_requests_keep_spans_for_the_sample_only():
    tracer = spans.Tracer(sample_every=4)
    tracer.wrap(Toy, "outer", "outer", request=lambda args: args[1], sampled=True)
    tracer.wrap(Toy, "inner", "inner")
    try:
        keys = [(device, 0) for device in range(64)]
        for key in keys:
            Toy().outer(key)
    finally:
        tracer.restore()
    sampled = {key for key in keys if spans.sample_request(key, 4)}
    assert 0 < len(sampled) < len(keys)
    assert tracer.layers()["outer"].calls == 64
    assert tracer.layers()["inner"].calls == 128
    assert {s.request for s in tracer.spans if s.layer == "outer"} == sampled
    assert sum(s.layer == "inner" for s in tracer.spans) == 2 * len(sampled)


def test_every_wrapped_entry_point_is_restored_after_a_traced_run(small_params):
    import workloads

    originals = {}
    for path, _, _ in spans.TARGETS:
        owner, attr = spans._resolve(path)
        originals[path] = (owner, attr, owner.__dict__[attr])
    params = workloads.resolve_params("gw_collide_sf7", small_params["gw_collide_sf7"])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert child.main(
            ["--workload", "gw_collide_sf7", "--params", json.dumps(params), "--trace", "1"]
        ) == 0
    layers = json.loads(stdout.getvalue().splitlines()[-1])["layers"]
    assert layers["decode.calls"][0] > 0 and layers["detect.calls"][0] > 0
    for path, (owner, attr, original) in originals.items():
        assert owner.__dict__[attr] is original, path
