"""storen: storage audits built on almost-universal hash families.

A verifier that keeps only a short digest can later check, over a
challenge-response round, that provers still hold a piece of data.  The
package provides two hash families whose value tables form good codes
(polynomial evaluation over a prime field and remaindering by distinct
primes), four audit variants (one prover; several provers checked
separately, via one linear equation, or through Reed-Solomon parities with
cheater identification), an error-and-erasure decoder, an adversary
simulation harness, and a small TCP transport plus CLI.
"""

from .codes import (
    SystematicRSCode,
    brute_force_list_decode,
    encode,
    johnson_list_size_bound,
    johnson_radius,
    min_distance_exhaustive,
    rs_decode_errors_erasures,
    rs_encode_systematic,
)
from .errors import CapacityError, ProtocolError, UnsupportedVariantError, UsageError
from .hash_families import (
    KIND_KARP_RABIN,
    KIND_POLYNOMIAL,
    HashFamilyDescriptor,
    collision_probability_exact,
    derive_family,
    descriptor_from_bytes,
    descriptor_to_bytes,
    hash_all,
    hash_eval,
    hash_eval_stream,
    karp_rabin_family,
    polynomial_family,
)
from .protocol import (
    RNG_ALGORITHM,
    VARIANTS,
    AuditShape,
    ChunkPlan,
    Digest,
    Verdict,
    digest_from_bytes,
    digest_payload_bits,
    digest_to_bytes,
    multi_rs_preprocess,
    preprocess,
    retrievability_extract,
    storage_bound_slack,
    verify,
)

__version__ = "0.1.0"
