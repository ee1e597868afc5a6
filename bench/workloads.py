"""The benchmark's workloads.

Every workload returns the same end-to-end metrics; ``README.md`` says
what each one measures on each workload.  The untraced path calls only
the CLI and names that ``storen``, ``storen.transport``,
``storen.adversary`` and ``storen.cli`` export, and looks each up through
its module at call time, so the traced run's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import storen
import storen.adversary as adversary
import storen.transport as transport
from storen.cli import synthesize_message

import binomial
import layers
from tracer import percentile

SETUP_REPS = 3


def log(line):
    print(line, flush=True)


class Run:
    """One benchmark run: seeds, children, tracing, and what went wrong."""

    def __init__(self, seed, seconds, tracer, children, tmp):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.children = children
        self.tmp = tmp
        self.probe = layers.Probe(tracer) if tracer is not None else None
        self.attempted = 0
        self.failed = 0
        self.failures_logged = 0
        self.checks_failed = 0
        self.layer_extra = {}

    def sub_seed(self, *labels):
        text = ":".join(["bench", str(self.seed), *map(str, labels)])
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

    def operations(self, count, ok, reason):
        """Count ``count`` audits or trials that together either match their
        ground truth (``ok``) or fail."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures_logged += 1
            if self.failures_logged <= 10:
                log(f"FAILED: {reason}")

    def check(self, name, ok):
        """A correctness check that is not an operation."""
        if not ok:
            self.checks_failed += 1
            log(f"CHECK FAILED: {name}")

    def span(self, name):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @contextlib.contextmanager
    def wrapped(self, enabled=True):
        """Install the layer wrappers around the block in a traced run."""
        if self.tracer is None or not enabled:
            yield
            return
        layers.install(self.tracer, self.probe)
        try:
            yield
        finally:
            self.tracer.uninstall()

    def set_op(self, op):
        if self.tracer is not None:
            self.tracer.current_op = op

    def is_traced(self, cycle):
        """A traced run alternates untraced and traced cycles, so the two
        see the same machine and their difference is the overhead."""
        return self.tracer is not None and cycle % 2 == 1

    def finish_trace(self, per_kind):
        """Per-layer figures the benchmark measures itself.  ``per_kind``
        maps traced (bool) to the (operations, seconds) it measured."""
        if self.tracer is None:
            return
        (ops_u, sec_u), (ops_t, sec_t) = per_kind[False], per_kind[True]
        self.layer_extra["tracing_overhead"] = (sec_t / ops_t) / (sec_u / ops_u) - 1
        self.layer_extra["cli.import_s"] = cli_import_s(self)
        self.layer_extra.update(large_k_probe(self.sub_seed("large-k")))


def cli_import_s(run, reps=5):
    """Interpreter start plus ``import storen.cli``, minus a bare start."""
    bare, full = [], []
    for _ in range(reps):
        for code, sink in (("pass", bare), ("import storen.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=run.children.env,
                           cwd=run.children.cwd, check=True)
            sink.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


def large_k_probe(seed, reps=3):
    """Milliseconds for one ``hash_eval`` at k = 50 000, for both families."""
    out = {}
    for kind, key in ((storen.KIND_POLYNOMIAL, "poly"), (storen.KIND_KARP_RABIN, "kr")):
        fam = storen.derive_family(kind, 50_000, Fraction(1, 2))
        x = synthesize_message(fam, seed)
        times = []
        for rep in range(reps):
            beta = 1 + (seed + rep) % fam.n
            t0 = time.perf_counter()
            storen.hash_eval(fam, x, beta)
            times.append(time.perf_counter() - t0)
        out[f"hash_families.hash_eval.{key}_k50000_ms"] = 1000 * statistics.median(times)
    return out


def _ms(seconds):
    return 1000 * seconds


# --- audit-rs ------------------------------------------------------------------

AUDIT_K, AUDIT_EPS, AUDIT_S, AUDIT_R, AUDIT_E = 2048, Fraction(1, 2), 4, 1, 1
CYCLES = 20  # measurement cycles, spread between the set-ups
# Distinct digests per second of budget.  A fixed count rather than a
# deadline: duplicate draws grow as challenges are used up, so a fixed
# count keeps their share the same for every version of the program.
DIGESTS_PER_SECOND = 150


def _start_provers(run, rep, fam, x, plan, data_path):
    """One timed set-up: CLI derive and preprocess, then the s serve
    processes one after another, each ready at its ``listening on`` line.
    Returns (seconds, servers, addresses, descriptor path)."""
    desc = run.tmp / f"family-{rep}.desc"
    digest_path = run.tmp / f"setup-{rep}.digest"
    digest_seed = run.sub_seed("setup-digest", rep)
    servers, addresses = [], []
    t0 = time.perf_counter()
    with run.span("cli.derive"):
        code, out, _, _ = run.children.run_cli(
            "derive", "--kind", fam.kind, "--data-symbols", fam.k,
            "--epsilon", AUDIT_EPS, "--out", desc)
    run.check(f"storen derive exits 0: {out.strip()}", code == 0)
    with run.span("cli.preprocess"):
        code, out, _, _ = run.children.run_cli(
            "preprocess", "--family", desc, "--data", data_path,
            "--seed", digest_seed, "--variant", "rs-parity", "--provers", AUDIT_S,
            "--r", AUDIT_R, "--e", AUDIT_E, "--out", digest_path)
    run.check(f"storen preprocess exits 0: {out.strip()}", code == 0)
    for index in range(1, AUDIT_S + 1):
        with run.span("cli.serve_ready"):
            child, address = run.children.start_server(
                "--family", desc, "--data", data_path, "--variant", "rs-parity",
                "--chunks", AUDIT_S, "--chunk-index", index, "--port", 0)
        servers.append(child)
        addresses.append(address)
    seconds = time.perf_counter() - t0

    run.check("storen derive writes the library's descriptor",
              desc.read_bytes() == storen.descriptor_to_bytes(fam))
    library = storen.multi_rs_preprocess(fam, x, plan, AUDIT_R, AUDIT_E, digest_seed)
    run.check("storen preprocess writes the library's digest, byte for byte",
              digest_path.read_bytes() == storen.digest_to_bytes(library))
    return seconds, servers, addresses, desc


def audit_rs(run):
    fam = storen.derive_family(storen.KIND_POLYNOMIAL, AUDIT_K, AUDIT_EPS)
    x = synthesize_message(fam, run.sub_seed("data"))
    plan = storen.ChunkPlan(AUDIT_S, fam.k)
    width = ((fam.q - 1).bit_length() + 7) // 8
    data_path = run.tmp / "data.bin"
    data_path.write_bytes(b"".join(sym.to_bytes(width, "big") for sym in x))

    # Two seeds that draw the same challenge give byte-identical digests, and
    # the verifier rightly refuses the second as spent: keep distinct ones.
    seen = set()
    draws = 0
    per_cycle = max(1, min(int(DIGESTS_PER_SECOND * run.seconds), fam.n // 2) // CYCLES)

    def preprocess(count):
        """``count`` distinct new digests, and the seconds spent drawing them."""
        nonlocal draws
        fresh = []
        t0 = time.perf_counter()
        while len(fresh) < count:
            run.set_op(draws)
            digest = storen.multi_rs_preprocess(
                fam, x, plan, AUDIT_R, AUDIT_E, run.sub_seed("digest", draws))
            draws += 1
            key = storen.digest_to_bytes(digest)
            if key not in seen:
                seen.add(key)
                fresh.append(digest)
        return fresh, time.perf_counter() - t0

    audits = 0

    def audit(digests):
        nonlocal audits
        latencies = []
        for digest in digests:
            run.set_op(audits)
            audits += 1
            start = time.perf_counter()
            try:
                verdict = transport.run_verifier_client(digest, addresses)
            except Exception as exc:  # a raising audit is a failed operation
                run.operations(1, False, f"audit raised {exc!r}")
            else:
                run.operations(
                    1, verdict.outcome == "accepted" and not verdict.accused
                    and not verdict.erased,
                    f"audit verdict {verdict}")
            latencies.append(time.perf_counter() - start)
        return latencies

    def cli_audit(digest):
        path = run.tmp / f"cli-audit-{len(cli_times)}.digest"
        path.write_bytes(storen.digest_to_bytes(digest))
        code, out, wall, _ = run.children.run_cli(
            "audit", "--digest", path, "--family", desc, "--r", AUDIT_R,
            "--e", AUDIT_E, *[arg for host, port in addresses
                              for arg in ("--prover", f"{host}:{port}")])
        cli_times.append(wall)
        run.operations(1, code == 0 and out.splitlines() == ["outcome: accepted"],
                       f"storen audit exit {code}: {out.strip()}")

    # Set-up 0 starts the provers every cycle audits; the other set-ups are
    # timed between cycles and stopped at once, so that every figure samples
    # the whole run rather than one stretch of a shared machine's load.
    setup_times, cli_times, latencies, cycle_p90s = [], [], [], []
    distinct = prep_seconds = 0
    per_kind = {False: (0, 0.0), True: (0, 0.0)}
    seconds, servers, addresses, desc = _start_provers(run, 0, fam, x, plan, data_path)
    setup_times.append(seconds)
    cli_digests, _ = preprocess(CYCLES)
    extra_setups = {CYCLES // 2: 1, CYCLES: 2}
    for cycle in range(CYCLES + 1):
        if cycle in extra_setups:
            seconds, others, _, _ = _start_provers(
                run, extra_setups[cycle], fam, x, plan, data_path)
            setup_times.append(seconds)
            for child in others:
                run.children.stop(child)
        if cycle == CYCLES:
            break
        traced = run.is_traced(cycle)
        with run.wrapped(traced):
            digests, prep_s = preprocess(per_cycle)
            t0 = time.perf_counter()
            lat = audit(digests)
            ops, sec = per_kind[traced]
            per_kind[traced] = (ops + len(lat), sec + time.perf_counter() - t0)
        if not traced:
            distinct += len(digests)
            prep_seconds += prep_s
            latencies += lat
            cycle_p90s.append(percentile(lat, 90))
        cli_audit(cli_digests[cycle])

    rss_kb = [run.children.stop(child) for child in servers]
    run.finish_trace(per_kind)
    log(f"audit-rs: {draws} digest draws, {len(seen)} distinct; "
        f"{len(latencies)} untraced audits, {len(cli_times)} CLI audits")
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": distinct / prep_seconds,
        "latency_p50_ms": _ms(percentile(latencies, 50)),
        # The median over cycles of each cycle's p90 (a few hundred audits,
        # dozens beyond its p90): a burst of load from elsewhere on the
        # machine moves one cycle's tail, not the figure.
        "latency_p90_ms": _ms(statistics.median(cycle_p90s)),
        "cli_ms": _ms(statistics.median(cli_times)),
        "peak_rss_mb": max(rss_kb) / 1024,
    }


# --- experiments -----------------------------------------------------------------


class Config:
    """One ``run_experiment`` configuration and the trials it has run."""

    def __init__(self, label, fam, x, strategy, **kwargs):
        self.label = label
        self.fam = fam
        self.x = x
        self.strategy = strategy
        self.kwargs = kwargs
        self.reports = []

    def run(self, trials, master_seed):
        return adversary.run_experiment(
            self.fam, self.x, self.strategy, trials, master_seed, **self.kwargs)


def _experiment(run, build, trials, cli_args):
    """Measure ``run_experiment`` calls and ``storen experiment`` runs.

    ``build()`` derives the families and returns the configurations; it and
    one one-trial call per configuration are a set-up.  Each cycle runs one
    ``trials``-trial call per configuration (a pass, so every configuration
    gets the same trials) and one ``storen experiment``; the first cycles
    also time a set-up.  Cycles repeat until the passes have taken the
    budget.  Returns the configurations, the metrics and the CLI outputs."""
    setup_times = []

    def setup(rep):
        with run.wrapped():
            t0 = time.perf_counter()
            configs = build()
            for config in configs:
                config.run(1, run.sub_seed("setup", rep, config.label))
            setup_times.append(time.perf_counter() - t0)
        return configs

    call_times, cli_times, rss_kb, cli_outputs = [], [], [], []
    per_kind = {False: (0, 0.0), True: (0, 0.0)}
    configs = setup(0)
    cycle = 0
    while cycle < SETUP_REPS or sum(sec for _, sec in per_kind.values()) < run.seconds:
        if 0 < cycle < SETUP_REPS:
            setup(cycle)
        traced = run.is_traced(cycle)
        done = spent = 0
        with run.wrapped(traced):
            for config in configs:
                seed = run.sub_seed("master", cycle, config.label)
                t0 = time.perf_counter()
                report = config.run(trials, seed)
                elapsed = time.perf_counter() - t0
                spent += elapsed
                done += report.trials
                if not traced:
                    call_times.append(elapsed)
                config.reports.append(report)
                log(f"outcome {config.label} master_seed={seed} "
                    f"trials={report.trials} passes={report.passes} "
                    f"undecidable={report.undecidable} "
                    f"accused_counts={list(report.accused_counts)}")
        ops, sec = per_kind[traced]
        per_kind[traced] = (ops + done, sec + spent)
        code, out, wall, maxrss = run.children.run_cli(
            "experiment", *cli_args, f"seed={run.sub_seed('cli', cycle)}")
        cli_times.append(wall)
        rss_kb.append(maxrss)
        cli_outputs.append((code, out))
        cycle += 1

    run.finish_trace(per_kind)
    log(f"{cycle} cycles over {len(configs)} configurations; "
        f"{len(call_times)} untraced calls")
    return configs, {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": per_kind[False][0] / per_kind[False][1],
        "latency_p50_ms": _ms(percentile(call_times, 50)),
        "latency_p90_ms": _ms(percentile(call_times, 90)),
        "cli_ms": _ms(statistics.median(cli_times)),
        "peak_rss_mb": max(rss_kb) / 1024,
    }, cli_outputs


def _csv_rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


SINGLE_K, SINGLE_EPS, SINGLE_TRIALS = 256, Fraction(1, 4), 20_000


def experiment_single(run):
    def build():
        configs = []
        for kind in (storen.KIND_POLYNOMIAL, storen.KIND_KARP_RABIN):
            fam = storen.derive_family(kind, SINGLE_K, SINGLE_EPS)
            x = synthesize_message(fam, run.sub_seed("data", kind))
            for quarter in range(4):
                t = quarter * fam.n // 4
                configs.append(Config(f"{kind}/t={t}", fam, x, adversary.PartialCodeword(t)))
        return configs

    n = math.ceil(SINGLE_K / SINGLE_EPS**2)
    cli_args = ["kind=polynomial", f"k={SINGLE_K}", f"epsilon={SINGLE_EPS}",
                "variant=single", "strategy=partial-codeword",
                "t=" + ",".join(str(q * n // 4) for q in range(4)), "trials=2000"]
    configs, metrics, cli_outputs = _experiment(run, build, SINGLE_TRIALS, cli_args)

    # Ground truth: each (family, t) rate lies within 5 sigma of the analytic
    # one, by the exact binomial test (``binomial.py`` says why).
    for config in configs:
        trials = sum(r.trials for r in config.reports)
        passes = sum(r.passes for r in config.reports)
        rate = config.reports[0].analytic_rate
        ok = rate is not None and binomial.consistent(passes, trials, rate)
        run.operations(trials, ok, f"{config.label}: {passes}/{trials} passes, "
                                   f"analytic rate {rate and float(rate)}")
    for code, out in cli_outputs:
        rows = _csv_rows(out) if code == 0 else []
        ok = len(rows) == 4 and all(
            binomial.consistent(int(row["passes"]), int(row["trials"]),
                                Fraction(row["analytic_rate"]))
            for row in rows)
        run.operations(sum(int(row["trials"]) for row in rows) or 1, ok,
                       f"storen experiment exit {code}: {out.strip()}")
    return metrics


RS_K, RS_EPS, RS_S, RS_R, RS_E, RS_TRIALS = 512, Fraction(1, 2), 8, 1, 1, 5_000
RS_CHEATER = 3  # 1-based; ZeroAnswerer
RS_FLAKY = 6  # 1-based; Unresponsive(0.5)


def experiment_rs_cheaters(run):
    def build():
        fam = storen.derive_family(storen.KIND_POLYNOMIAL, RS_K, RS_EPS)
        x = synthesize_message(fam, run.sub_seed("data"))
        strategies = [adversary.Honest()] * RS_S
        strategies[RS_CHEATER - 1] = adversary.ZeroAnswerer()
        strategies[RS_FLAKY - 1] = adversary.Unresponsive(0.5)
        return [Config("rs-parity/zero@3,unresponsive@6", fam, x, strategies,
                       variant="rs-parity", plan=storen.ChunkPlan(RS_S, fam.k),
                       r=RS_R, e=RS_E)]

    cli_args = ["kind=polynomial", f"k={RS_K}", f"epsilon={RS_EPS}",
                "variant=rs-parity", f"s={RS_S}", f"r={RS_R}", f"e={RS_E}",
                "strategy=honest", "trials=200"]
    configs, metrics, cli_outputs = _experiment(run, build, RS_TRIALS, cli_args)

    # Ground truth: nothing undecidable, no honest prover accused, and every
    # trial either passes or accuses exactly the cheater.
    for report in configs[0].reports:
        honest_accused = sum(report.accused_counts) - report.accused_counts[RS_CHEATER - 1]
        ok = (report.undecidable == 0 and honest_accused == 0
              and report.accused_counts[RS_CHEATER - 1] + report.passes == report.trials)
        run.operations(report.trials, ok, f"master seed {report.master_seed}: {report}")
    for code, out in cli_outputs:
        rows = _csv_rows(out) if code == 0 else []
        ok = len(rows) == 1 and rows[0]["passes"] == rows[0]["trials"]
        run.operations(int(rows[0]["trials"]) if rows else 1, ok,
                       f"storen experiment exit {code}: {out.strip()}")
    return metrics


WORKLOADS = {
    "audit-rs": audit_rs,
    "experiment-single": experiment_single,
    "experiment-rs-cheaters": experiment_rs_cheaters,
}
