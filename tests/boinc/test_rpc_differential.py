"""The timer-driven scheduler RPC against the process it replaced.

``ProjectServer.scheduler_rpc`` serves an RPC from callbacks: a free slot
is served at once, a queued one from its grant, and one timer ends the
service delay.  ``reference_rpc.scheduler_rpc`` is the process body it
was.  Hypothesis draws one program — slot capacity, RPC arrivals with
same-instant bursts, server crashes and restores that land while RPCs
queue or are in service, and callers interrupted mid-RPC — and runs it
once against each on identically seeded clouds.  Every RPC must end at
the same instant with the same reply or error, the slot counters must
agree and the :class:`~repro.faults.RunAuditor` must find nothing.

The second half does the same for whole volunteers: the product client
against one whose main loop is ``reference_rpc.main`` (the ``AnyOf``
backoff wait) and whose RPCs are the oracle processes, under early
wake-ups, churn and crashes.  Their traces must be equal record for
record.
"""

import contextlib
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.boinc import FileRef, ProjectServer, SchedulerRequest, Workunit
from repro.boinc import server as server_mod
from repro.boinc.client import Client, ClientConfig
from repro.core import (BoincMRConfig, CloudSpec, MapReduceJobSpec,
                        VolunteerCloud)
from repro.faults import RunAuditor
from repro.net import ADSL_LINK
from repro.sim import Interrupted

from . import reference_rpc

#: RPCs arrive on whole seconds (bursts share one), everything else the
#: program does lands between them, while RPCs queue or are in service
#: (service takes 0.6 s +- 20%).
ARRIVALS = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
BETWEEN = st.sampled_from([0.25, 0.5, 0.75, 1.25, 1.5, 1.75, 2.25, 2.5,
                           3.5, 4.25])
HOSTS = 4


def _served(outcome):
    """An RPC's outcome, comparable across the two implementations."""
    exc = outcome.exception  # a callback's event has fired
    if exc is not None:
        return (type(exc).__name__, str(exc))
    reply = outcome.value
    return ([(a.result_id, a.wu.id, a.deadline, a.est_runtime_s)
             for a in reply.assignments],
            reply.no_work, reply.request_delay_s)


def run_program(capacity, arrivals, crashes, restores, interrupts, seed,
                oracle):
    """Play one drawn program; what every RPC and caller saw, and the
    server's slot counters and audit."""
    with (mock.patch.object(server_mod, "RPC_CAPACITY", capacity),
          mock.patch.object(server_mod, "RPC_PROCESS_S", 0.6)):
        cloud = VolunteerCloud.from_spec(CloudSpec(seed=seed))
        sim, server = cloud.sim, cloud.server
        hosts = [server.register_host(f"h{i}", 1.0) for i in range(HOSTS)]
        for i in range(3):
            server.submit_workunit(Workunit(
                id=server.db.new_wu_id(), app_name="app",
                input_files=(FileRef(f"in{i}", 1e3),), flops=50.0 * (i + 1),
                target_nresults=2, min_quorum=1))
        server._feeder_pass()
        start = (reference_rpc.process_rpc if oracle
                 else ProjectServer.scheduler_rpc)
        served, seen, callers = {}, {}, {}

        def caller(n, request):
            try:
                rpc = start(server, request)
                rpc.add_callback(
                    lambda ev: served.__setitem__(n, (sim.now, _served(ev))))
                reply = yield rpc
                seen[n] = (sim.now, len(reply.assignments))
            except Interrupted:
                seen[n] = (sim.now, "interrupted")
            except Exception as exc:  # noqa: BLE001 - compared below
                seen[n] = (sim.now, type(exc).__name__)

        def arrive(n, host, work_req):
            callers[n] = sim.process(caller(n, SchedulerRequest(
                host_id=hosts[host].id, work_req_s=work_req)))

        for n, (at, host, work_req) in enumerate(arrivals):
            sim.schedule(at, arrive, n, host, work_req)
        for at in crashes:
            sim.schedule(at, server.crash)
        for at in restores:
            sim.schedule(at, server.restore)
        for at, n in interrupts:
            if n < len(arrivals):
                sim.schedule(at, lambda n=n: n in callers
                             and callers[n].interrupt("churn"))
        sim.run(until=30.0)
        slots = server._rpc_slots
        audit = RunAuditor(cloud).audit()
        return (served, seen,
                (slots.granted_total, slots.released_total,
                 slots.cancelled_total, slots.in_use, slots.waiting),
                [str(v) for v in audit.violations])


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 3),
       arrivals=st.lists(st.tuples(ARRIVALS, st.integers(0, HOSTS - 1),
                                   st.sampled_from([0.0, 60.0, 600.0])),
                         min_size=1, max_size=8),
       crashes=st.lists(BETWEEN, max_size=2),
       restores=st.lists(BETWEEN, max_size=2),
       interrupts=st.lists(st.tuples(BETWEEN, st.integers(0, 7)),
                           max_size=3),
       seed=st.integers(0, 3))
@example(capacity=1, arrivals=[(0.0, 0, 600.0)] * 4, crashes=[0.25],
         restores=[1.5], interrupts=[(0.5, 1)], seed=0)
def test_rpc_matches_the_process_it_replaced(capacity, arrivals, crashes,
                                              restores, interrupts, seed):
    program = (capacity, arrivals, crashes, restores, interrupts, seed)
    got = run_program(*program, oracle=False)
    want = run_program(*program, oracle=True)
    assert got == want
    served, seen, slots, violations = got
    assert len(served) == len(arrivals)  # no RPC is lost, none hangs
    assert slots[3:] == (0, 0) and violations == []


def test_a_crash_while_queued_fails_and_one_in_service_is_served():
    served, seen, _slots, _violations = run_program(
        1, [(0.0, 0, 600.0), (0.0, 1, 600.0)], [0.25], [], [], 0,
        oracle=False)
    assert isinstance(served[0][1][0], list)  # in service: a reply
    assert served[1][1] == ("ServerUnavailable",
                            "scheduler crashed mid-request")
    assert served[1][0] == served[0][0]  # failed as the slot came free
    assert seen[1] == (served[1][0], "ServerUnavailable")


def test_an_interrupted_caller_leaves_the_rpc_to_finish():
    served, seen, slots, _violations = run_program(
        1, [(0.0, 0, 600.0)], [], [], [(0.25, 0)], 0, oracle=False)
    assert seen[0] == (0.25, "interrupted")
    assert served[0][0] > 0.25 and served[0][1][0]  # assignments handed out
    assert slots[:2] == (1, 1)


# -- whole volunteers: the AnyOf backoff wait and the RPC process ------------

def run_cloud(n_nodes, capacity, mr, urgent, notifies, churn, crashes, seed,
              oracle):
    """A small job on a few volunteers under drawn disturbances; its
    trace records and audit."""
    spec = CloudSpec(seed=seed,
                     mr_config=(BoincMRConfig() if mr
                                else BoincMRConfig.vanilla_boinc()),
                     client_config=ClientConfig(backoff_max_s=60.0,
                                                report_immediately=urgent))
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(server_mod, "RPC_CAPACITY",
                                              capacity))
        if oracle:
            stack.enter_context(mock.patch.object(
                Client, "_main", reference_rpc.main))
            stack.enter_context(mock.patch.object(
                ProjectServer, "scheduler_rpc", reference_rpc.process_rpc))
        cloud = VolunteerCloud.from_spec(spec)
        for i in range(n_nodes):
            cloud.add_volunteer(f"node{i:03d}", mr=mr, link_spec=ADSL_LINK)
        job = cloud.submit(MapReduceJobSpec("d", n_maps=3, n_reducers=1,
                                            input_size=3e6))
        sim, clients = cloud.sim, cloud.clients
        for at, i in notifies:
            sim.schedule(at, lambda i=i: clients[i % n_nodes]._notify())
        for at, i, down_s in churn:
            client = clients[i % n_nodes]
            sim.schedule(at, lambda c=client: c.offline or c.go_offline())
            sim.schedule(at + down_s,
                         lambda c=client: c.offline and c.come_online())
        for at, down_s in crashes:
            sim.schedule(at, cloud.server.crash)
            sim.schedule(at + down_s, cloud.server.restore)
        cloud.run_until(sim.timeout(4000.0))
        records = [(r.time, r.kind, sorted(r.fields.items()))
                   for r in cloud.tracer.records]
        return records, job.done.triggered, [
            str(v) for v in cloud.audit(job).violations]


#: Disturbances land on whole seconds: never on a jittered timer's instant.
WHEN = st.integers(1, 900).map(float)


@settings(max_examples=25, deadline=None)
@given(n_nodes=st.integers(1, 4), capacity=st.integers(1, 3),
       mr=st.booleans(), urgent=st.booleans(),
       notifies=st.lists(st.tuples(WHEN, st.integers(0, 3)), max_size=6),
       churn=st.lists(st.tuples(WHEN, st.integers(0, 3),
                                st.sampled_from([5.0, 60.0, 300.0])),
                      max_size=2),
       crashes=st.lists(st.tuples(WHEN, st.sampled_from([2.0, 30.0, 200.0])),
                        max_size=2),
       seed=st.integers(0, 5))
def test_volunteers_match_the_anyof_wait_and_the_rpc_process(
        n_nodes, capacity, mr, urgent, notifies, churn, crashes, seed):
    program = (n_nodes, capacity, mr, urgent, notifies, churn, crashes, seed)
    assert run_cloud(*program, oracle=False) == run_cloud(*program,
                                                          oracle=True)
