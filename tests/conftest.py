import json
import subprocess
import sys
import time

import pytest

from hxpw import conic, hemisystem
from hxpw.fields import tower


@pytest.fixture(scope="session")
def ctx1():
    return tower(1)


@pytest.fixture(scope="session")
def ctx2():
    return tower(2)


@pytest.fixture(scope="session")
def ctx3():
    return tower(3)


@pytest.fixture(scope="session")
def hx_bundle_2(ctx2):
    return conic.table_bundle(ctx2)


@pytest.fixture(scope="session")
def hx_bundle_3(ctx3):
    return conic.table_bundle(ctx3)


@pytest.fixture(scope="session")
def pw_bundle_2(ctx2):
    return hemisystem.klein_table_bundle(ctx2)


@pytest.fixture(scope="session")
def lines_2(ctx2):
    return hemisystem.build_hemisystem(ctx2)


@pytest.fixture(scope="session")
def S_2(ctx2, lines_2):
    """The spread incidence of the hemisystem at h = 2."""
    return hemisystem.spread_map(ctx2, lines_2)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "hxpw", *map(str, args)],
                          capture_output=True, text=True)
    return proc


@pytest.fixture(scope="session")
def cert_h2_cli(tmp_path_factory):
    """CLI run of `certify --h 2 --depth full`, with wall time."""
    out = tmp_path_factory.mktemp("certs") / "cert_h2.json"
    t0 = time.time()
    proc = run_cli("certify", "--h", 2, "--depth", "full", "--out", out)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr
    return {"cert": json.loads(out.read_text()), "elapsed": elapsed,
            "returncode": proc.returncode}


@pytest.fixture(scope="session")
def cert_h3_cli(tmp_path_factory):
    """CLI run of `certify --h 3`, with wall time."""
    out = tmp_path_factory.mktemp("certs3") / "cert_h3.json"
    t0 = time.time()
    proc = run_cli("certify", "--h", 3, "--out", out)
    elapsed = time.time() - t0
    assert proc.returncode == 0, proc.stderr
    return {"cert": json.loads(out.read_text()), "elapsed": elapsed,
            "returncode": proc.returncode}
