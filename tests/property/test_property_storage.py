"""Property test: on-disk corruption is always detected at load time.

A random bit flip in either file of a durable chain store must make
``DurableStore.open`` raise a typed :class:`ReproError` or load a chain
with the identical tip id — never silently load a different chain, and
never escape as an untyped exception.  ``verify_store`` must always
return a report, never raise.  (A flip could in principle leave the
store meaning the same chain only by a hash collision, or by hitting
bytes that carry no meaning, such as JSON whitespace.)
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.query.builder import build_system
from repro.query.config import SystemConfig
from repro.storage.durable import DurableStore, StoreReport, verify_store
from repro.workload.generator import WorkloadParams, generate_workload
from repro.workload.profiles import ProbeProfile

FILES = ("chain.log", "manifest.json")


@pytest.fixture(scope="module")
def stored_chain(tmp_path_factory):
    workload = generate_workload(
        WorkloadParams(
            num_blocks=8,
            txs_per_block=4,
            seed=21,
            probes=[ProbeProfile("P", 2, 2)],
        )
    )
    system = build_system(
        workload.bodies, SystemConfig.lvq(bf_bytes=96, segment_len=8)
    )
    directory = tmp_path_factory.mktemp("chain-store") / "chain"
    DurableStore.create(directory, system)
    originals = {name: (directory / name).read_bytes() for name in FILES}
    return system, directory, originals


@given(
    target=st.sampled_from(FILES),
    position=st.integers(min_value=0, max_value=10_000_000),
    bit=st.integers(min_value=0, max_value=7),
)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_any_flip_detected_or_harmless(stored_chain, target, position, bit):
    system, directory, originals = stored_chain
    raw = bytearray(originals[target])
    raw[position % len(raw)] ^= 1 << bit
    try:
        for name, payload in originals.items():
            (directory / name).write_bytes(
                bytes(raw) if name == target else payload
            )
        # The offline fsck never raises, whatever the damage.
        assert isinstance(verify_store(directory, deep=True), StoreReport)
        try:
            loaded = DurableStore.open(directory).system
        except ReproError:
            return  # detected — the required outcome for meaningful flips
        # Accepted: the chain must be the original one.
        assert loaded.headers()[-1].block_id() == (
            system.headers()[-1].block_id()
        )
    finally:
        # open() may have truncated the log or rewritten the manifest.
        for name, payload in originals.items():
            (directory / name).write_bytes(payload)
