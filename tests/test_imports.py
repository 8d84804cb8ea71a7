"""What a process imports: each side of the gateway loads only its own.

The package namespaces resolve their exports on first use
(:mod:`repro.lazy`), a volunteer imports none of the server side, no live
process imports the simulator, and a built
:class:`~repro.gateway.GatewayServer` has loaded what its requests run,
so none of them pays an import.  Each footprint is read in a fresh
interpreter.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = str(pathlib.Path(repro.__file__).parent.parent)

#: The packages whose ``__init__`` resolves each export on first use.
LAZY = ("repro", "repro.core", "repro.boinc", "repro.obs", "repro.gateway",
        "repro.sim")

#: What a client of the gateway must not load: the server's job plane and
#: numpy with it, the load generator, the simulator and its observability.
SERVER_SIDE = ("numpy", "repro.gateway.jobs", "repro.gateway.loadgen",
               "repro.core.system", "repro.boinc.client", "repro.obs.spans")

#: The simulator's event kernel and flow network, which the scheduler
#: core and every live process do without (module-name prefixes).
SIMULATOR = ("repro.net", "repro.sim.engine", "repro.sim.events",
             "repro.sim.process")

#: What each live process imports before it does anything: the scheduler
#: core alone, ``repro serve`` with its server built, the benchmark's
#: load generator and a volunteer (``repro volunteer``).
LIVE = {
    "core": "import repro.boinc.server",
    "serve": "import repro.cli\n"
             "from repro.gateway import GatewayConfig, GatewayServer\n"
             "GatewayServer(GatewayConfig())",
    "loadgen": "from repro.gateway import GatewayClient, GatewayServer, "
               "GatewayError, protocol, run_volunteer",
    "volunteer": "import repro.cli\n"
                 "from repro.gateway import GatewayClient, run_volunteer",
}

#: Prints the :data:`SIMULATOR` modules loaded once ``{code}`` has run.
_LOADS = f"""
import json, sys
{{code}}
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith({SIMULATOR!r}))))
"""

#: Prints the repro modules a volunteer's imports load outside the
#: client side, then the :data:`SERVER_SIDE` modules loaded once the
#: server module is imported too.
_CLIENT = f"""
import json, sys
from repro.gateway import GatewayClient, run_volunteer
volunteer = sorted(m for m in sys.modules if m.startswith(
    ("repro.core", "repro.boinc", "repro.obs", "repro.gateway.server")))
from repro.gateway import GatewayError, GatewayServer, protocol
print(json.dumps([volunteer,
                  [m for m in {SERVER_SIDE!r} if m in sys.modules]]))
"""

#: Every ``protocol.ENDPOINTS`` path served once by an in-thread server,
#: the first ``POST /jobs`` among them; prints what the server had loaded
#: once built, the modules the requests added, the package names they
#: resolved, the paths served and the :data:`SIMULATOR` modules loaded.
_SERVED = f"""
import json, socket, sys, threading, time
from repro.gateway import GatewayClient, GatewayServer, protocol, run_volunteer
from repro.gateway import server as server_module

served = set()
for path, (handler, _family) in server_module._HANDLERS.items():
    def wrapped(self, *args, _handler=getattr(GatewayServer, handler),
                _path=path):
        served.add(_path)
        return _handler(self, *args)
    setattr(GatewayServer, handler, wrapped)

handle = GatewayServer.in_thread()
built = [m in sys.modules for m in ("numpy", "numpy.random",
                                   "repro.gateway.jobs")]
client = GatewayClient(handle.address)
host, port = handle.address.rsplit(":", 1)
socket.getaddrinfo(host, int(port))  # imports the host-name codec
resolved = []
for package in {LAZY!r}:
    namespace = sys.modules[package]
    def spy(name, _resolve=namespace.__getattr__, _package=package):
        resolved.append(_package + "." + name)
        return _resolve(name)
    namespace.__getattr__ = spy
before = set(sys.modules)
client.submit_job("wc", "wordcount", 4_000, 3, n_maps=2, n_reducers=1)
done = threading.Event()
volunteer = threading.Thread(target=run_volunteer, args=(
    handle.address, "solo", 0.005, 10 ** 9, done.is_set))
volunteer.start()
while client.job_status("wc")["state"] == "running":
    time.sleep(0.005)
done.set()
volunteer.join()
client.job_output("wc")
client.status()
client.health()
client.request("GET", "/metrics")
added = sorted(set(sys.modules) - before)
client.close()
handle.close()
print(json.dumps([built, added, resolved, sorted(served),
                  sorted(ep.path for ep in protocol.ENDPOINTS),
                  sorted(m for m in sys.modules
                         if m.startswith({SIMULATOR!r}))]))
"""


def _fresh(code: str) -> list:
    """What *code*, run in a fresh interpreter, prints as JSON."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    return json.loads(proc.stdout)


def test_a_client_imports_none_of_the_server_side():
    assert _fresh(_CLIENT) == [[], []]


@pytest.mark.parametrize("process", LIVE)
def test_a_live_process_imports_no_simulator(process):
    assert _fresh(_LOADS.format(code=LIVE[process])) == []


def test_a_built_server_serves_every_endpoint_without_importing():
    """The job plane loads with the server, ``numpy.random`` with it (the
    corpus generator draws from it), so no request imports a module, and
    a server that has served every endpoint holds no simulator."""
    built, added, resolved, served, endpoints, simulator = _fresh(_SERVED)
    assert built == [True, True, True]
    assert added == []
    assert resolved == []
    assert served == endpoints
    assert simulator == []


@pytest.mark.parametrize("package", LAZY)
class TestLazyNamespace:
    def test_every_export_is_its_modules_object(self, package):
        namespace = importlib.import_module(package)
        for name in namespace.__all__:
            obj = getattr(namespace, name)
            assert vars(namespace)[name] is obj  # resolved once, then kept
            if name == "__version__":
                continue
            homes = [module for key, module in list(sys.modules.items())
                     if key.startswith(f"{package}.")
                     and vars(module).get(name) is obj]
            assert homes, name
            defined_in = getattr(obj, "__module__", None)
            if callable(obj):
                assert defined_in.startswith(f"{package}."), name
                assert getattr(sys.modules[defined_in], name) is obj

    def test_dir_and_star_import_list_every_export(self, package):
        namespace = importlib.import_module(package)
        assert set(namespace.__all__) <= set(dir(namespace))
        star: dict = {}
        exec(f"from {package} import *", star)
        assert set(star) - {"__builtins__"} == set(namespace.__all__)

    def test_an_unknown_name_raises_attribute_error(self, package):
        namespace = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(namespace, "no_such_name")
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})
