"""Command line interface.

Subcommands:

- ``derive``      pick family parameters for a target collision bound
- ``preprocess``  build a challenge digest from a data file
- ``serve``       answer challenges for (a share of) a data file over TCP
- ``audit``       challenge provers over TCP and print the verdict
- ``experiment``  replay simulated audits against adversarial provers
- ``certify``     run a built-in self-check suite

Exit codes: 0 accepted/success, 1 rejected, 2 usage or protocol error,
3 undecidable audit, 4 I/O error.

Data files are raw bytes.  For the polynomial kind a file holds exactly
``count`` symbols, each big-endian in the smallest whole number of bytes
that fits the field; for karp-rabin the whole file is one big-endian
natural number (and the trivial variant splits the file into equal runs,
one number per prover).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from .codes import SystematicRSCode, rs_decode_errors_erasures, rs_encode_systematic
from .errors import ProtocolError, UsageError
from .hash_families import (
    KIND_KARP_RABIN,
    KIND_POLYNOMIAL,
    CheckedSymbols,
    collision_probability_exact,
    derive_family,
    descriptor_from_bytes,
    descriptor_to_bytes,
    family_fingerprint,
    hash_eval,
    karp_rabin_family,
    polynomial_family,
)
from .protocol import (
    VARIANTS,
    answerers,
    digest_from_bytes,
    digest_payload_bits,
    digest_to_bytes,
    lookup_variant,
    preprocess,
    single_preprocess,
)
# adversary and transport are imported only by the subcommands that use them

_EXIT_BY_OUTCOME = {"accepted": 0, "rejected": 1, "undecidable": 3}


# --- data files --------------------------------------------------------------


def _symbol_byte_width(q: int) -> int:
    return ((q - 1).bit_length() + 7) // 8


def _read_polynomial_symbols(fam, raw: bytes, count: int) -> CheckedSymbols:
    width = _symbol_byte_width(fam.q)
    if len(raw) != count * width:
        raise UsageError(
            f"data file holds {len(raw)} bytes; expected {count} symbols of "
            f"{width} byte(s) each ({count * width} bytes)"
        )
    symbols = (int.from_bytes(raw[i:i + width], "big") for i in range(0, len(raw), width))
    return CheckedSymbols(symbols, fam.q)  # names the position of a symbol out of range


def _read_data(fam, raw: bytes, spec, plan):
    """The message a data file holds for ``plan``: ``plan.symbols`` symbols
    for the polynomial kind.  For karp-rabin it is one natural, or for a
    chunk family one natural per prover from equal runs of the file."""
    if fam.kind == KIND_POLYNOMIAL:
        return _read_polynomial_symbols(fam, raw, plan.symbols)
    runs = plan.provers if spec.chunk_family else 1
    if len(raw) % runs:
        raise UsageError(
            f"data file of {len(raw)} bytes does not split into {runs} equal runs"
        )
    width = len(raw) // runs
    space = fam.message_space
    values = []
    for i in range(runs):
        value = int.from_bytes(raw[i * width:(i + 1) * width], "big")
        if value >= space:
            raise UsageError(
                f"data value {i + 1} does not fit the message space [0, {space})"
            )
        values.append(value)
    return tuple(values) if spec.chunk_family else values[0]


def synthesize_message(fam, seed: int, count=None):
    """Deterministic pseudo-random message for experiments.

    ``count`` overrides the symbol count for the polynomial kind (the
    trivial variant hashes ``provers * k`` symbols) and gives the number of
    chunk values for karp-rabin.
    """
    label = f"storen.data:{seed}".encode()
    rng = random.Random(int.from_bytes(hashlib.sha256(label).digest(), "big"))
    if fam.kind == KIND_POLYNOMIAL:
        return CheckedSymbols((rng.randrange(fam.q) for _ in range(count or fam.k)), fam.q)
    space = fam.message_space
    if count is None:
        return rng.randrange(space)
    return tuple(rng.randrange(space) for _ in range(count))


# --- subcommands --------------------------------------------------------------


def _load_family(path: str):
    return descriptor_from_bytes(Path(path).read_bytes())


def _parse_hostport(text: str):
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise UsageError(f"prover address {text!r} is not host:port")
    if not port.isdecimal() or not 1 <= int(port) <= 65535:
        raise UsageError(f"prover address {text!r} needs a port number in 1-65535")
    return host, int(port)


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"--{flag} is required here")
    return value


def cmd_derive(args) -> int:
    fam = derive_family(args.kind, args.data_symbols, args.epsilon)
    print(f"kind: {fam.kind}")
    print(f"data symbols: {fam.k}")
    print(f"challenges: {fam.n}")
    if fam.kind == KIND_POLYNOMIAL:
        print(f"field size: {fam.q}")
    else:
        print(f"largest prime: {fam.primes[-1]}")
    print(f"collision bound: {fam.epsilon_actual}")
    print(f"challenge bits: {fam.challenge_bits}")
    print(f"symbol bits: {fam.symbol_bits}")
    print(f"fingerprint: {family_fingerprint(fam).hex()}")
    if args.out:
        Path(args.out).write_bytes(descriptor_to_bytes(fam))
        print(f"descriptor: {args.out}")
    return 0


def _plan(spec, fam, provers, flag: str):
    return spec.chunk_plan(fam, spec.provers or _require(provers, flag))


def cmd_preprocess(args) -> int:
    fam = _load_family(args.family)
    spec = VARIANTS[args.variant]
    plan = _plan(spec, fam, args.provers, "provers")
    x = _read_data(fam, Path(args.data).read_bytes(), spec, plan)
    digest = preprocess(args.variant, fam, x, plan, args.seed, args.r, args.e)
    Path(args.out).write_bytes(digest_to_bytes(digest))
    print(f"variant: {digest.variant}")
    print(f"provers: {plan.provers}")
    print(f"payload bits: {digest_payload_bits(digest)}")
    print(f"digest: {args.out}")
    return 0


def cmd_audit(args) -> int:
    from .transport import run_verifier_client
    digest = digest_from_bytes(Path(args.digest).read_bytes())
    digest = digest.with_family(_load_family(args.family))
    addresses = [_parse_hostport(p) for p in args.prover]
    verdict = run_verifier_client(
        digest, addresses, r=args.r, e=args.e, timeout_ms=args.timeout_ms
    )
    print(f"outcome: {verdict.outcome}")
    if verdict.accused:
        print("accused: " + " ".join(str(i) for i in sorted(verdict.accused)))
    if verdict.erased:
        print("erased: " + " ".join(str(i) for i in sorted(verdict.erased)))
    return _EXIT_BY_OUTCOME[verdict.outcome]


def _serve_answerer(args, fam):
    """Answer function over this prover's share of the data file.  The whole
    file is read and range-checked; only the prover's chunk (and, for linear
    and rs-parity, its offset) outlives this call."""
    spec = VARIANTS[args.variant]
    plan = _plan(spec, fam, args.chunks, "chunks")
    index = spec.provers or _require(args.chunk_index, "chunk-index")
    plan.bounds(index)  # range-checks the index
    x = _read_data(fam, Path(args.data).read_bytes(), spec, plan)
    return answerers(fam, spec.shares(fam, x, plan))[index - 1]


def cmd_serve(args) -> int:
    from .transport import ProverServer
    if not 0 <= args.port <= 65535:
        raise UsageError(f"--port {args.port} is outside 0-65535")
    if args.max_sessions is not None and args.max_sessions < 1:
        raise UsageError(f"--max-sessions must be at least 1, got {args.max_sessions}")
    fam = _load_family(args.family)
    server = ProverServer(
        fam,
        _serve_answerer(args, fam),
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
    )
    server.start()
    try:
        host, port = server.address
        print(f"listening on {host}:{port}", flush=True)
        server.wait_closed()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


_EXPERIMENT_KEYS = {
    "kind", "k", "epsilon", "variant", "strategy", "t", "trials", "seed",
    "s", "r", "e",
}


def _parse_experiment_config(pairs) -> dict:
    config = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"expected key=value, got {item!r}")
        if key not in _EXPERIMENT_KEYS:
            raise UsageError(f"unknown experiment key {key!r}")
        if key in config:
            raise UsageError(f"duplicate experiment key {key!r}")
        config[key] = value
    for key in ("kind", "k", "epsilon", "strategy", "trials", "seed"):
        if key not in config:
            raise UsageError(f"experiment key {key!r} is required")
    return config


def cmd_experiment(args) -> int:
    from .adversary import (
        Honest,
        PartialCodeword,
        PartialRaw,
        UniformGuesser,
        Unresponsive,
        ZeroAnswerer,
        run_sweep,
    )
    config = _parse_experiment_config(args.config)
    try:
        k = int(config["k"])
        trials = int(config["trials"])
        seed = int(config["seed"])
        t_values = [int(v) for v in config["t"].split(",")] if "t" in config else None
        s = int(config["s"]) if "s" in config else None
        r = int(config["r"]) if "r" in config else None
        e = int(config["e"]) if "e" in config else None
    except ValueError as exc:
        raise UsageError(f"bad experiment value: {exc}")
    variant = config.get("variant", "single")
    spec = lookup_variant(variant)
    fam = derive_family(config["kind"], k, config["epsilon"])
    plan = _plan(spec, fam, s, "s")
    x = synthesize_message(fam, seed, count=plan.symbols if spec.chunk_family else None)

    name = config["strategy"]
    if name in ("partial-codeword", "partial-raw"):
        if not t_values:
            raise UsageError(f"strategy {name!r} needs t=<comma separated counts>")
        cls = PartialCodeword if name == "partial-codeword" else PartialRaw
        plans = [(str(t), cls(t)) for t in t_values]
    else:
        flat = {
            "honest": Honest(),
            "uniform": UniformGuesser(),
            "zero": ZeroAnswerer(),
            "unresponsive": Unresponsive(),
        }
        if name not in flat:
            raise UsageError(f"unknown strategy {name!r}")
        plans = [("", flat[name])]

    # every t is checked, and every store built, before the first line
    reports = run_sweep(fam, x, [strategy for _, strategy in plans], trials, seed,
                        variant=variant, plan=plan, r=r, e=e)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # an exact karp-rabin rate runs to 10**5 digits
    writer = csv.writer(sys.stdout)
    writer.writerow(["t", "retained_bits", "trials", "passes",
                     "empirical_rate", "analytic_rate"])
    for (t_label, _), report in zip(plans, reports):
        writer.writerow([
            t_label,
            report.retained_bits,
            report.trials,
            report.passes,
            str(report.empirical_rate),
            "" if report.analytic_rate is None else str(report.analytic_rate),
        ])
    return 0


def cmd_certify(args) -> int:
    from .adversary import UniformGuesser, run_experiment
    from .transport import (
        ProverServer,
        honest_answerer,
        reset_consumed_digests,
        run_verifier_client,
    )
    reset_consumed_digests()
    failures = 0

    def check(label: str, ok: bool):
        nonlocal failures
        print(("ok - " if ok else "FAIL - ") + label)
        failures += 0 if ok else 1

    fam = derive_family(KIND_POLYNOMIAL, 2, Fraction(4, 5))
    check("parameter derivation fixed point", fam.n == 4 and fam.q == 5)

    poly = polynomial_family(k=2, n=4, q=5)
    kr = karp_rabin_family(k=2, n=4)
    check(
        "exact collision probability within bound",
        collision_probability_exact(poly) <= Fraction(1, 4)
        and collision_probability_exact(kr) <= Fraction(1, 4),
    )

    code = SystematicRSCode(2, 6, 7)
    word = list(rs_encode_systematic(code, (2, 5)))
    word[0] = (word[0] + 3) % 7
    word[4] = None
    check(
        "decoder repairs an error and an erasure",
        rs_decode_errors_erasures(code, word) == ((2, 5), frozenset({1})),
    )

    x = (1, 2)
    chunk_fam = polynomial_family(k=1, n=4, q=5)
    accepted = True
    for name, spec in VARIANTS.items():
        # honest answers from hash_eval itself, not from the table's answerers
        fam_v = chunk_fam if spec.chunk_family else poly
        plan = spec.chunk_plan(fam_v, spec.provers or 2)
        digest = preprocess(name, fam_v, x, plan, 0, r=1, e=0)
        answers = [
            hash_eval(fam_v, plan.split(x)[i - 1] if spec.chunk_family
                      else plan.zero_extended(x, i), digest.beta)
            for i in range(1, plan.provers + 1)
        ]
        accepted = accepted and spec.decide(spec.check(digest, len(answers)), answers).accepted
    check("all variants accept honest answers", accepted)

    digest = single_preprocess(poly, x, 1)
    with ProverServer(poly, honest_answerer(poly, x)) as server:
        verdict = run_verifier_client(digest, [server.address])
    check("tcp loopback audit accepts", verdict.accepted)

    guess_fam = derive_family(KIND_POLYNOMIAL, 2, Fraction(1, 2))
    report = run_experiment(
        guess_fam, synthesize_message(guess_fam, 0), UniformGuesser(),
        trials=2000, master_seed=0,
    )
    p = float(report.analytic_rate)
    slack = 3 * (p * (1 - p) / 2000) ** 0.5
    check(
        "guessing matches its analytic rate",
        abs(float(report.empirical_rate) - p) <= slack,
    )

    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storen",
        description="Storage audits from almost-universal hashing: derive "
        "parameters, build digests, serve and audit provers, and run "
        "adversary experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="pick family parameters for a collision bound")
    p.add_argument("--kind", choices=[KIND_POLYNOMIAL, KIND_KARP_RABIN], required=True)
    p.add_argument("--data-symbols", type=int, required=True,
                   help="message length k (symbols for polynomial, primes for karp-rabin)")
    p.add_argument("--epsilon", required=True,
                   help="target bound, e.g. 1/4 (the certified list-decoding "
                   "radius fraction is 1-epsilon)")
    p.add_argument("--out", help="write the 25-byte family descriptor here")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("preprocess", help="build a challenge digest from a data file")
    p.add_argument("--family", required=True, help="family descriptor file")
    p.add_argument("--variant", required=True, choices=list(VARIANTS))
    p.add_argument("--data", required=True, help="data file")
    p.add_argument("--seed", type=int, required=True, help="challenge sampling seed")
    p.add_argument("--out", required=True, help="digest file to write")
    p.add_argument("--provers", type=int, help="prover count s (multi-prover variants)")
    p.add_argument("--r", type=int, help="cheater budget (rs-parity)")
    p.add_argument("--e", type=int, help="silence budget (rs-parity)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("audit", help="challenge provers over TCP")
    p.add_argument("--digest", required=True, help="digest file")
    p.add_argument("--family", required=True, help="family descriptor file "
                   "(range-checks the challenge and the answers)")
    p.add_argument("--prover", action="append", required=True,
                   help="host:port, one per prover in prover order")
    p.add_argument("--r", type=int, help="cheater budget (rs-parity)")
    p.add_argument("--e", type=int, help="silence budget (rs-parity)")
    p.add_argument("--timeout-ms", type=int, help="per-prover timeout of the whole query")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("serve", help="answer challenges for a data file")
    p.add_argument("--family", required=True, help="family descriptor file")
    p.add_argument("--data", required=True, help="data file (the whole message)")
    p.add_argument("--variant", default="single", choices=list(VARIANTS))
    p.add_argument("--chunks", type=int, help="total provers s (multi-prover variants)")
    p.add_argument("--chunk-index", type=int, help="this prover's 1-based index")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument("--max-sessions", type=int,
                   help="shut down after this many connections")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("experiment", help="simulate audits against adversaries")
    p.add_argument("config", nargs="+",
                   help="key=value pairs: kind, k, epsilon, strategy, trials, "
                   "seed are required; variant, t (comma list), s, r, e optional")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("certify", help="run the built-in self-check suite")
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (UsageError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
