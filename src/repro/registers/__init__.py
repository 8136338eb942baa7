"""Register protocol suite.

Implements the storage emulations the paper discusses:

* :mod:`repro.registers.abd` — crash-tolerant ABD (1-round writes, 2-round
  reads) and its multi-writer variant, the classical baseline;
* :mod:`repro.registers.safe` — a Byzantine safe register, the weakest rung;
* :mod:`repro.registers.fast_regular` — GV06-style robust regular register
  (2-round writes, 2-round reads, readers write);
* :mod:`repro.registers.bounded_regular` — AAB07-style bounded reads
  (voucher pooling across rounds, ``O(t)`` worst case);
* :mod:`repro.registers.secret_token` — DMSS09-style regular register in the
  secret-token model (1-round reads absent contention);
* :mod:`repro.registers.lucky` — best-case-fast atomic register in the
  spirit of [14]/[16] (1-round lucky paths, graceful degradation);
* :mod:`repro.registers.transform_atomic` — the SWMR regular → SWMR atomic
  transformation of [4, 20] that closes the paper's gap (2-round writes,
  4-round reads; 3-round reads over the token substrate);
* :mod:`repro.registers.transform_mwmr` — SWMR → MWMR transformation (and
  its registry face, the ``mwmr-*`` stacks the multi-writer backend runs);
* :mod:`repro.registers.sharded` — keyspace-sharded composite: one SWMR
  register per key multiplexed over the shared physical objects;
* :mod:`repro.registers.strawman` — deliberately scalable-but-doomed
  protocols (2-round and 3-round reads) used as concrete victims of the
  lower-bound constructions.

The register template
---------------------

Every protocol is a :class:`~repro.registers.base.RegisterProtocol` and
writes only ``validate_configuration``, ``object_handler``,
``write_generator_tagged(ctx, tv)`` (the writer's rounds for a given
``(ts, value)`` pair) and ``read_tagged_generator(ctx, reader)`` (a
reader's rounds, returning the selected pair).  It inherits the writer's
counter and ``write_generator`` (mint the next pair, write it) and
``read_generator`` (the tagged read's value); ``mw-abd`` overrides its
writes, and the regular→atomic transformation mints when a write starts.

The registry
------------

Every protocol here registers itself with
:func:`repro.api.registry.register_protocol` — a class decorator (or, for
the composite transformations, an explicit factory registration) attaching
the metadata the facade reports: fault model, semantics rung, resilience
class (both as a formula and an executable ``min_size(t)``), advertised
round counts, and the named scenarios its guarantees cover.  That makes
every protocol addressable as data::

    from repro.api import available_protocols, get_protocol, get_spec

    available_protocols()              # ('abd', 'atomic-fast-regular', ...)
    get_protocol("fast-regular")       # a fresh FastRegularProtocol
    get_spec("abd").resilience         # 'S ≥ 2t + 1'

Importing this package runs the decorators, so the registry is always
complete once :mod:`repro.registers` is loaded (the facade does this
lazily on first lookup).  New protocols only need the decorator — the CLI
(``python -m repro list-protocols`` / ``run``), the benchmarks and the
:class:`repro.api.Cluster` builder pick them up automatically.
"""

from repro.registers.base import ProtocolContext, RegisterProtocol, RegisterSystem
from repro.registers.abd import AbdProtocol, MultiWriterAbdProtocol
from repro.registers.safe import ByzantineSafeProtocol
from repro.registers.fast_regular import FastRegularProtocol
from repro.registers.bounded_regular import BoundedRegularProtocol
from repro.registers.secret_token import SecretTokenProtocol, TokenAuthority
from repro.registers.lucky import LuckyAtomicProtocol
from repro.registers.transform_atomic import RegularToAtomicProtocol
from repro.registers.transform_mwmr import (
    MultiWriterRegisterSystem,
    MultiWriterStackProtocol,
    NativeMultiWriterSystem,
)
from repro.registers.sharded import ShardedRegisterSystem
from repro.registers.strawman import ThreeRoundReadProtocol, TwoRoundReadProtocol

__all__ = [
    "ProtocolContext",
    "RegisterProtocol",
    "RegisterSystem",
    "AbdProtocol",
    "MultiWriterAbdProtocol",
    "ByzantineSafeProtocol",
    "FastRegularProtocol",
    "BoundedRegularProtocol",
    "SecretTokenProtocol",
    "TokenAuthority",
    "LuckyAtomicProtocol",
    "RegularToAtomicProtocol",
    "MultiWriterRegisterSystem",
    "MultiWriterStackProtocol",
    "NativeMultiWriterSystem",
    "ShardedRegisterSystem",
    "TwoRoundReadProtocol",
    "ThreeRoundReadProtocol",
]
