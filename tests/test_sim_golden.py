"""Golden outputs of `run_simulation`: every Metrics array, and the
controller's frame-0 table, hashed.

The digests pin the closed loop bit for bit across refactors of the slot
loop, for both channel models (Gilbert-Elliot links persistent,
anti-persistent and memoryless) and every policy, over whole frames and over a horizon that ends in a partial frame, and
uniform_random with a queue that empties mid-frame. A digest changes only
when the simulated trajectories change.
"""

import hashlib

import numpy as np
import pytest

from aoi_dpp.channel import GilbertElliotChannel, IIDChannel
from aoi_dpp.model import FrameConfig
from aoi_dpp.sim import FrameTables, PolicyKind, run_simulation

CHANNELS = {
    "ge": GilbertElliotChannel(p11_1=0.9, p01_1=0.6, p11_2=0.9, p01_2=0.6),
    # user 1 never leaves Good, user 2 never leaves Bad once there
    "ge-zero": GilbertElliotChannel(p11_1=1.0, p01_1=0.6, p11_2=0.9, p01_2=0.0),
    "iid": IIDChannel(p1=0.8, p2=0.7),
    # anti-persistent (p01 > p11): a draw between the two flips the state
    "ge-anti": GilbertElliotChannel(p11_1=0.2, p01_1=0.7, p11_2=0.5, p01_2=0.95),
    # memoryless (p01 == p11), through the Gilbert-Elliot path
    "ge-memoryless": GilbertElliotChannel(p11_1=0.6, p01_1=0.6, p11_2=0.8, p01_2=0.8),
}
ARRAYS = (
    "aoi",
    "queue",
    "actions",
    "d1",
    "d2",
    "z_trajectory",
    "per_frame_deliveries",
    "aoi_histogram",
    "schedule_fractions",
)

CASES = {
    f"{chan}-{policy.value}-V{v:g}": (chan, policy, v)
    for chan in ("ge", "ge-zero", "iid")
    for policy in PolicyKind
    for v in (0.0, 5.0)
}
# 1,013 slots = 50 frames of T = 20 plus a partial frame of 13 slots.
PARTIAL_HORIZON = 1_013
CASES.update(
    (f"{chan}-{policy.value}-V5-partial", (chan, policy, 5.0, PARTIAL_HORIZON))
    for chan in ("ge", "iid", "ge-anti", "ge-memoryless")
    for policy in PolicyKind
)
CASES["ge-zero-drift_plus_penalty-V5-partial"] = (
    "ge-zero", PolicyKind.DRIFT_PLUS_PENALTY, 5.0, PARTIAL_HORIZON
)
# Two packets a frame: uniform_random empties the queue mid-frame and then
# draws from the two actions an empty queue allows.
CASES["ge-uniform_random-V5-partial-K2"] = (
    "ge", PolicyKind.UNIFORM_RANDOM, 5.0, PARTIAL_HORIZON, 2
)


def metrics_digest(
    chan: str, policy: PolicyKind, v: float, horizon: int = 1_000, K: int = 15,
) -> str:
    # The delivery target stays 12 of every 15 packets.
    cfg = FrameConfig(T=20, K=K, q=12.0 * K / 15, A_max=20, V=v)
    tables = None
    if policy == PolicyKind.DRIFT_PLUS_PENALTY:
        tables = FrameTables(cfg, CHANNELS[chan])
    m = run_simulation(cfg, CHANNELS[chan], policy, horizon, 7, warmup_slots=100,
                       tables=tables)
    h = hashlib.sha256()
    arrays = [getattr(m, name) for name in ARRAYS]
    if tables is not None:
        arrays += [tables.frame0.values, tables.frame0.actions]
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    h.update(repr(m.warnings).encode())
    return h.hexdigest()


# Recorded with the earlier slot loop (separate baseline and channel-model
# branches), so they also pin the table-driven loop to its behaviour.
GOLDEN = {
    "ge-aoi_greedy-V0": "8690e4cf6dbaf2773bfb613da401b32daea0b7d84fe097cf5ec74583ba120680",
    "ge-aoi_greedy-V5": "8690e4cf6dbaf2773bfb613da401b32daea0b7d84fe097cf5ec74583ba120680",
    "ge-deadline_first-V0": "e80a02ecfa9215c3146992c51469fd9936df1b566696a632f88de6d4d999dea1",
    "ge-deadline_first-V5": "e80a02ecfa9215c3146992c51469fd9936df1b566696a632f88de6d4d999dea1",
    "ge-drift_plus_penalty-V0": "893c4f97cd2fb826d1320f26516091d3b31c7b8a5793308ba39ef0e197f4c973",
    "ge-drift_plus_penalty-V5": "d2e1c68daf707e63b343a328deda0bfc7d696fa4d7f217f4ccfeb067b064886e",
    "ge-zero-aoi_greedy-V0": "d73d5c4b0f76ed88be09492055edede27cc1d1f8f9aa551103de6de7c076a927",
    "ge-zero-aoi_greedy-V5": "d73d5c4b0f76ed88be09492055edede27cc1d1f8f9aa551103de6de7c076a927",
    "ge-zero-deadline_first-V0": "d2fa227a6c24222205056d00ef86d0a8b15346f61107e2c721b396636efc5abf",
    "ge-zero-deadline_first-V5": "d2fa227a6c24222205056d00ef86d0a8b15346f61107e2c721b396636efc5abf",
    "ge-zero-drift_plus_penalty-V0": "7b53f7334bb9315fe31eebee6e4270d17ffec3b4cede2976f4b8538ba14cb814",
    "ge-zero-drift_plus_penalty-V5": "54b36c683653229fb9f9c7624b6b7548d2e4f51645230c88058f03b445ff5e52",
    "iid-aoi_greedy-V0": "4ac1637c7610bbafb15bc61676e71db2a47f4f38f6a11097448440e28ce010a1",
    "iid-aoi_greedy-V5": "4ac1637c7610bbafb15bc61676e71db2a47f4f38f6a11097448440e28ce010a1",
    "iid-deadline_first-V0": "72aeb950dcabc3b2cb27bcfc6304ef55fd52a9fc7c035c838572f69942fa6279",
    "iid-deadline_first-V5": "72aeb950dcabc3b2cb27bcfc6304ef55fd52a9fc7c035c838572f69942fa6279",
    "iid-drift_plus_penalty-V0": "e2a9c983fb21f139c60bbad70dfe0240a1a467b81471acf4a37e923a1d0964f6",
    "iid-drift_plus_penalty-V5": "12767fcb014aab92b4130dfe66e38bef682d589efe8bde9c1f3dc3419f09f165",
    # Recorded with the loop that stepped t % T slot by slot, before the
    # frame-by-frame loop, so they pin its partial last frame.
    "ge-aoi_greedy-V5-partial": "ebbd1fb1acae2c5a343e5823331df6968cc311cdad4ec36d89d92a36cf6491ee",
    "ge-deadline_first-V5-partial": "b1fec2bd8948732f3321566cc6d9c7ba2baa6deb9bbc22aa3dcb9dafb42b6fec",
    "ge-drift_plus_penalty-V5-partial": "d1b68a90dbb6430388d2711be624fddb57ba826ce411e1525e37b4f7c86bc02a",
    "ge-zero-drift_plus_penalty-V5-partial": "78457490e0dc24a9842f13c1c89be5f0edcc3cde5af393fd8169d05934da86ac",
    "iid-aoi_greedy-V5-partial": "357b530027182cf13d7b05ea59e3374b61b7e25ff3a0f5340f96161ba0f07e6e",
    "iid-deadline_first-V5-partial": "ae9bd07b29752fa05b51dc5741cc8797e016810d2f99513f5ac4af9aa48b0747",
    "iid-drift_plus_penalty-V5-partial": "857a228e96e617608b6bc11e3cf69a21267c96cbd90a3db03fdd87fc07ee4b50",
    # Recorded with the loop that drew each slot's channel state from its
    # uniforms slot by slot, before the channel was computed ahead of the
    # loop, so they pin the anti-persistent and memoryless chains.
    "ge-anti-aoi_greedy-V5-partial": "591bad9ba312bb2ff24ccfa24e779d50159d40b4b982ff15f39c6af84c25112c",
    "ge-anti-deadline_first-V5-partial": "e8c1c1551f97032f8f6c112f8ea86992771e13cf60777e16daf917e86e1d0e92",
    "ge-anti-drift_plus_penalty-V5-partial": "2b9448fcffd800d807927f4694213a415671481e9aa5534a29583c6044036b8b",
    "ge-memoryless-aoi_greedy-V5-partial": "9f34a8cf45c183f731e3e03cbf77334edf2588eebc8be4c936dbd2a66e190dbf",
    "ge-memoryless-deadline_first-V5-partial": "8d189f1fe5bea1fadb5769b55eae63383e258ecb529056f15bcd75c070ac5b74",
    "ge-memoryless-drift_plus_penalty-V5-partial": "8ffb8ba51be774c8c717f66e17e889c75e3b7db7fb228aed37d71b5c59ee5c07",
    # Recorded with uniform_random's one bulk draw of its actions.
    "ge-anti-uniform_random-V5-partial": "46f7a9c3745da51c88b6b7c644f90cf70cb617c2971773adf5297182af58ea91",
    "ge-memoryless-uniform_random-V5-partial": "37eaad9331e96be0f65666e1a624b608a66f8aa0f754c307b4301ebb18967c4c",
    "ge-uniform_random-V0": "9c934e2e8e0231bfda81c1cc73eb96e0c5400363e920cf045e99b099758805f6",
    "ge-uniform_random-V5": "9c934e2e8e0231bfda81c1cc73eb96e0c5400363e920cf045e99b099758805f6",
    "ge-uniform_random-V5-partial": "56dc0723e63628f3511db99b9bb7c770050e3d12a021c939f4aaa3febab5304c",
    "ge-uniform_random-V5-partial-K2": "4f8d6090e2dd6b4279d88192cc16be9ca3aec9ea927b4d7039878c01d9a6a738",
    "ge-zero-uniform_random-V0": "8335db30c595c8f87fca01ce78a9d4671e6eba46b7afaef3b5cac6b5f44f68eb",
    "ge-zero-uniform_random-V5": "8335db30c595c8f87fca01ce78a9d4671e6eba46b7afaef3b5cac6b5f44f68eb",
    "iid-uniform_random-V0": "861b18ef8da573b987519804f4c9b67e39643e75519697e0139e8fdd339ea491",
    "iid-uniform_random-V5": "861b18ef8da573b987519804f4c9b67e39643e75519697e0139e8fdd339ea491",
    "iid-uniform_random-V5-partial": "b8b37059f92d66a3c80929c0a8558afe681714b4e785985580662183ba701be9",
}


def test_every_case_has_one_golden():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_metrics_match_golden(case):
    assert metrics_digest(*CASES[case]) == GOLDEN[case]
