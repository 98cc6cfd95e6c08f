import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdrlab
from zdrlab.rings import (
    Family,
    OrderCapError,
    RingSpec,
    SpecSyntaxError,
    build_ring,
    parse_ring_spec,
    spec_order,
)


@pytest.mark.parametrize(
    "text",
    [
        "Zn:6",
        "Zn:2",
        "Zni:9",
        "GF:8",
        "GF:49",
        "prod:(Zn:2,GF:3)",
        "prod:(Zn:2,prod:(Zn:2,Zn:2))",
        "cat:Z3r.r2",
        "cat:Z4r.2r_r2-2",
        "cat:Zpr.r2:5",
    ],
)
def test_round_trip(text):
    assert parse_ring_spec(text).to_text() == text


def test_parse_structure():
    spec = parse_ring_spec("prod:(Zn:2,GF:3)")
    assert spec.family is Family.PRODUCT
    assert spec.children[0] == RingSpec(Family.ZN, n=2)
    assert spec.children[1] == RingSpec(Family.GF, n=3)
    assert parse_ring_spec("Zni:9") == RingSpec(Family.ZN_GAUSS, n=9)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("Zn:1", "n >= 2"),
        ("Zn:x", "integer"),
        ("GF:6", "not a prime power"),
        ("GF:16", "exceeds 3"),
        ("prod:(Zn:2Zn:3)", "','"),
        ("prod:(Zn:2,Zn:3", "')'"),
        ("cat:nonsense", "unknown catalog id"),
        ("Zq:5", "expected one of"),
        ("Zn:6trailing", "trailing"),
    ],
)
def test_errors(text, fragment):
    with pytest.raises(SpecSyntaxError) as err:
        parse_ring_spec(text)
    assert fragment in str(err.value)


def test_error_carries_position():
    with pytest.raises(SpecSyntaxError) as err:
        parse_ring_spec("prod:(Zn:2,cat:bogus)")
    assert err.value.pos == 15


def test_spec_order():
    assert spec_order(parse_ring_spec("Zni:9")) == 81
    assert spec_order(parse_ring_spec("prod:(Zn:4,GF:9)")) == 36
    assert spec_order(parse_ring_spec("cat:Z2r.r3")) == 8
    assert spec_order(parse_ring_spec("cat:Zpr.r2:7")) == 49


def test_order_cap():
    with pytest.raises(OrderCapError):
        build_ring("Zni:65")  # 65^2 = 4225 > 4096
    assert build_ring("Zn:4096").order == 4096
    with pytest.raises(OrderCapError, match="^Zn:4097 has order 4097, above the cap 4096$"):
        build_ring("Zn:4097")
    # a GF base is checked while parsing, before its exponent is read
    with pytest.raises(OrderCapError, match="^GF:8192 has order 8192, above the cap 4096$"):
        parse_ring_spec("GF:8192")


@pytest.mark.parametrize(
    "text", ["GF:1000000000000000003", "cat:Zpr.r2:1000000000000000003"]
)
def test_huge_prime_base_rejected_before_factoring(text):
    # Trial division on a prime near 1e18 would run for minutes, so the CLI
    # runs in a subprocess whose timeout fails the test instead of hanging it.
    env = dict(os.environ, PYTHONPATH=str(Path(zdrlab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "zdrlab.cli", "ring", "describe", text],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert "above the cap 4096" in proc.stderr
