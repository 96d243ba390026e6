import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdcam.schedule import ScheduleSpec, beta_at
from sdcam.verify import verify_schedule_sandwich


def test_power_schedule_values():
    s = ScheduleSpec(family="power", beta0=2.0, delta=0.5)
    assert beta_at(s, 0) == pytest.approx(2.0)
    assert beta_at(s, 3) == pytest.approx(4.0)
    assert beta_at(s, 99) == pytest.approx(20.0)


def test_blocked_schedule_holds_between_multiples():
    s = ScheduleSpec(family="blocked", beta0=1.0, delta=0.5, K=3)
    # jumps only at multiples of K
    assert beta_at(s, 0) == pytest.approx(1.0)
    assert beta_at(s, 1) == pytest.approx(1.0)
    assert beta_at(s, 2) == pytest.approx(1.0)
    assert beta_at(s, 3) == pytest.approx(2.0)
    assert beta_at(s, 4) == pytest.approx(2.0)
    assert beta_at(s, 5) == pytest.approx(2.0)
    assert beta_at(s, 6) == pytest.approx(7.0**0.5)


def test_blocked_with_K1_equals_power():
    p = ScheduleSpec(family="power", beta0=1.5, delta=0.3)
    b = ScheduleSpec(family="blocked", beta0=1.5, delta=0.3, K=1)
    for t in range(50):
        assert beta_at(p, t) == pytest.approx(beta_at(b, t))


def test_constants_power():
    s = ScheduleSpec(family="power", beta0=2.0, delta=0.4)
    assert s.alpha0 == pytest.approx(2.0)
    assert s.gamma0 == pytest.approx(2.0)
    assert s.eta0 == pytest.approx(0.8)


def test_constants_blocked():
    s = ScheduleSpec(family="blocked", beta0=2.0, delta=0.4, K=4)
    assert s.alpha0 == pytest.approx(2.0 * 4.0 ** (-0.4))
    assert s.gamma0 == pytest.approx(2.0)
    assert s.eta0 == pytest.approx(2.0 * 0.4 * 4.0 ** 1.6)


def test_validation():
    with pytest.raises(ValueError):
        ScheduleSpec(family="exotic", beta0=1.0, delta=0.5)
    for beta0 in (0.0, float("nan")):
        with pytest.raises(ValueError, match="beta0 must be positive"):
            ScheduleSpec(family="power", beta0=beta0, delta=0.5)
    with pytest.raises(ValueError):
        ScheduleSpec(family="power", beta0=1.0, delta=1.0)
    with pytest.raises(ValueError):
        ScheduleSpec(family="blocked", beta0=1.0, delta=0.5, K=0)
    with pytest.raises(ValueError):
        beta_at(ScheduleSpec(family="power", beta0=1.0, delta=0.5), -1)
    for K in (2.5, True, 3.0, "3"):
        with pytest.raises(ValueError, match="K must be a positive integer"):
            ScheduleSpec(family="blocked", beta0=1.0, delta=0.5, K=K)
    for kw in ({"beta0": True}, {"delta": True}):
        with pytest.raises(ValueError, match="must not be booleans"):
            ScheduleSpec(**{"family": "power", "beta0": 1.0, "delta": 0.5, **kw})


def test_schedules_nondecreasing_and_divergent():
    for s in (
        ScheduleSpec(family="power", beta0=0.01, delta=0.3),
        ScheduleSpec(family="blocked", beta0=0.01, delta=0.3, K=7),
    ):
        vals = [beta_at(s, t) for t in range(2000)]
        assert all(b <= a for b, a in zip(vals, vals[1:]))
        assert vals[-1] > 9 * vals[0]  # 2000^0.3 ~ 9.8


@settings(max_examples=50, deadline=None)
@given(
    beta0=st.floats(1e-4, 1e3),
    delta=st.floats(0.05, 0.95),
    K=st.integers(1, 20),
    family=st.sampled_from(["power", "blocked"]),
)
def test_sandwich_property(beta0, delta, K, family):
    s = ScheduleSpec(family=family, beta0=beta0, delta=delta, K=K)
    assert verify_schedule_sandwich(s, t_max=500)
