"""Where the traced run wraps the program, and the per-layer metrics it
derives from the spans.

Each entry of :data:`WRAPS` rebinds the name a calling module looks up at
call time: ``("storen.protocol", "hash_eval", ...)`` times the calls
``protocol`` makes into ``hash_families``.  A span is named after the
layer that owns the function, not the caller.
"""

from __future__ import annotations

import importlib
import statistics

from tracer import percentile

# (calling module, attribute, span name)
WRAPS = [
    ("storen.transport", "run_verifier_client", "transport.run_verifier_client"),
    ("storen.transport", "query_prover", "transport.query_prover"),
    ("storen.transport", "multi_rs_verify", "protocol.multi_rs_verify"),
    ("storen", "multi_rs_preprocess", "protocol.multi_rs_preprocess"),
    ("storen.adversary", "run_experiment", "adversary.run_experiment"),
    ("storen.adversary", "build_store", "adversary.build_store"),
    ("storen.adversary", "analytic_pass_rate", "adversary.analytic_pass_rate"),
    ("storen.adversary", "trial_seed", "adversary.trial_seed"),
    ("storen.adversary", "single_verify", "protocol.single_verify"),
    ("storen.adversary", "multi_rs_verify", "protocol.multi_rs_verify"),
    ("storen.adversary", "rs_encode_systematic", "codes.rs_encode_systematic"),
    ("storen.adversary", "encode", "codes.encode"),
    ("storen.adversary", "validate_message", "hash_families.validate_message"),
    ("storen.transport", "encode", "codes.encode"),
    ("storen.protocol", "rs_encode_systematic", "codes.rs_encode_systematic"),
    ("storen.protocol", "rs_decode_errors_erasures", "codes.rs_decode_errors_erasures"),
    ("storen.protocol", "hash_eval", "hash_families.hash_eval"),
    ("storen.protocol", "validate_message", "hash_families.validate_message"),
    ("storen.codes", "hash_all", "hash_families.hash_all"),
    ("storen.codes", "poly_eval_mod", "algebra.poly_eval_mod"),
    ("storen.hash_families", "validate_message", "hash_families.validate_message"),
    ("storen.hash_families", "poly_eval_mod", "algebra.poly_eval_mod"),
    ("storen.hash_families", "first_n_primes", "algebra.first_n_primes"),
]


class Probe:
    """Counters the wrappers feed besides spans."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.erasures = 0
        self.errors_found = 0
        self.symbols = 0
        self.experiments = 0
        self.challenges = set()  # (experiment number, beta) pairs drawn

    def hooks(self, module, attr):
        """(on_call, on_result) for one wrap target."""
        if attr == "query_prover":
            return None, self._query_result
        if attr == "rs_decode_errors_erasures":
            return None, self._decode_result
        if attr == "encode":
            return None, self._encode_result
        if attr == "run_experiment":
            return self._experiment_call, None
        if attr == "trial_seed":
            return self._trial_call, None
        if module == "storen.adversary" and attr in ("single_verify", "multi_rs_verify"):
            return self._verify_call, None
        return None, None

    def _query_result(self, args, kwargs, answer):
        if answer is None:
            self.erasures += 1

    def _decode_result(self, args, kwargs, decoded):
        if decoded is not None:
            self.errors_found += len(decoded[1])

    def _encode_result(self, args, kwargs, codeword):
        self.symbols += len(codeword)

    def _experiment_call(self, args, kwargs):
        self.experiments += 1

    def _trial_call(self, args, kwargs):
        self.tracer.current_op += 1

    def _verify_call(self, args, kwargs):
        self.challenges.add((self.experiments, args[0].beta))


def install(tracer, probe):
    """Wrap every target in :data:`WRAPS`, feeding ``probe``."""
    for module_name, attr, span_name in WRAPS:
        on_call, on_result = probe.hooks(module_name, attr)
        tracer.wrap(importlib.import_module(module_name), attr, span_name,
                    on_call=on_call, on_result=on_result)


def layer_metrics(tracer, probe, extra):
    """Every per-layer metric from the spans; ``extra`` holds the ones the
    workload measured itself (``cli.*``, the large-k probe, overhead)."""
    kids = tracer.children()
    spans = tracer.by_name()

    def durations(name):
        return [tracer.duration(i) for i in spans.get(name, ())]

    def calls(name):
        return len(spans.get(name, ()))

    def busy_s(name):
        return sum(durations(name), 0.0)

    def p_ms(values, p):
        return 1000 * percentile(values, p) if values else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    def self_s(name):
        return sum((tracer.self_time(i, kids) for i in spans.get(name, ())), 0.0)

    rvc = "transport.run_verifier_client"
    rvc_self = [
        tracer.self_time(i, kids, ["transport.query_prover", "protocol.multi_rs_verify"])
        for i in spans.get(rvc, ())
    ]
    serve_ready = durations("cli.serve_ready")
    m = {
        "cli.derive_s": median(durations("cli.derive")),
        "cli.preprocess_s": median(durations("cli.preprocess")),
        "cli.serve_ready_s": median(serve_ready),
        "cli.serve_ready_max_s": max(serve_ready, default=0.0),
        f"{rvc}.busy_ms_p50": p_ms(durations(rvc), 50),
        f"{rvc}.self_ms_p50": p_ms(rvc_self, 50),
        "transport.query_prover.calls": calls("transport.query_prover"),
        "transport.query_prover.busy_ms_p50": p_ms(durations("transport.query_prover"), 50),
        "transport.query_prover.busy_ms_p90": p_ms(durations("transport.query_prover"), 90),
        "transport.query_prover.erasures": probe.erasures,
        "protocol.multi_rs_preprocess.self_s": self_s("protocol.multi_rs_preprocess"),
        "codes.rs_decode_errors_erasures.errors_found": probe.errors_found,
        "codes.encode.symbols": probe.symbols,
        "adversary.run_experiment.self_s": self_s("adversary.run_experiment"),
        "adversary.codeword_use_ratio": (
            len(probe.challenges) / probe.symbols if probe.symbols else 0.0
        ),
    }
    for name in (
        "protocol.multi_rs_preprocess", "protocol.multi_rs_verify",
        "protocol.single_verify", "codes.rs_encode_systematic",
        "codes.rs_decode_errors_erasures", "codes.encode",
        "hash_families.hash_eval", "hash_families.validate_message",
        "hash_families.hash_all", "algebra.poly_eval_mod",
        "adversary.build_store", "adversary.trial_seed",
    ):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy_s(name)
    for name in ("algebra.first_n_primes", "adversary.analytic_pass_rate"):
        m[f"{name}.busy_s"] = busy_s(name)
    m.update(extra)
    return m
