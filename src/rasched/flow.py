"""Exact integer max-flow (Dinic) on the assignment network of an instance.

`AssignmentNetwork` lays the arcs source -> job -> permitted machine -> sink
of one instance once, in bulk: every arc id follows from the instance in
closed form, so the arc lists are filled by slices and one pass over the job
arcs. Each flow it runs only resets their capacities, so every guess of a
solve shares one graph. Its flow is Dinic's with the first phase pushed in
closed form: that phase's level graph is the layered network itself, so its
blocking flow is a greedy fill that needs no path search.

Every flow answers one question, Hall's (`violator`): the jobs the source
still reaches after a maximum flow, none exactly when every supply is sent,
and otherwise a job set that outweighs the machines it may use. A solve asks
it for the densest job set (with every job's supply), for the guesses that
set leaves undecided, for each schedule that is read and, under
`--lp-bound`, for the unit supplies of the Hall bound, the floor of the
config-LP bound's search (`rasched.seed`).
"""

from __future__ import annotations

from collections import deque


class AssignmentNetwork:
    """The arcs source -> job -> permitted machine -> sink of an instance, as
    a residual graph with integer capacities: arc e and its reverse e ^ 1.

    Job j is node j and machine i is node n + i. The source arcs come first,
    by job, then each job's machine arcs by machine id, then the sink arcs
    by machine. A job without supply keeps only arcs of capacity 0, which no
    search follows, so the flow over the other jobs takes the same paths as
    on a network laid for them alone.
    """

    def __init__(self, inst):
        n, m = inst.num_jobs, inst.num_machines
        self.source, self.sink = 0, n + m + 1
        self._jobs = jobs = inst.jobs
        # arc ids: job j's source arc 2 (j - 1), the job arcs from 2 n on,
        # machine i's sink arc sink_arc + 2 i; each reverse arc is id + 1
        first = 2 * n
        sink_arc = first + 2 * sum(map(len, inst.gamma)) - 2
        out = [list(range(0, first, 2))]  # arc ids leaving each node
        out += [[2 * j - 1] for j in jobs]
        out += [[] for _ in inst.machines]
        out.append(list(range(sink_arc + 3, sink_arc + 2 * m + 3, 2)))
        self.job_arcs = []  # (job, machine, arc id)
        # per job, its source arc and (machine arc, that machine's sink arc)
        # in machine id order
        self._fans = []
        e = first
        for j in jobs:
            fan = []
            self._fans.append((2 * (j - 1), fan))
            for i in sorted(inst.gamma[j]):
                out[j].append(e)
                out[n + i].append(e + 1)
                self.job_arcs.append((j, i, e))
                fan.append((e, sink_arc + 2 * i))
                e += 2
        for i in inst.machines:
            out[n + i].append(sink_arc + 2 * i)
        head = [0] * (e + 2 * m)
        head[0:first:2] = jobs
        head[first:e:2] = [n + i for _, i, _ in self.job_arcs]
        head[first + 1:e:2] = [j for j, _, _ in self.job_arcs]
        head[e::2] = [self.sink] * m
        head[e + 1::2] = range(n + 1, n + m + 1)
        # per arc, the index of its capacity in `violator`'s value list:
        # job j's arcs read j, sink arcs read n + 1, reverse arcs read 0
        self._owner = [0] * len(head)
        self._owner[0:e:2] = [*jobs, *(j for j, _, _ in self.job_arcs)]
        self._owner[e::2] = [n + 1] * m
        self.head, self.cap, self.out = head, [0] * len(head), out

    def violator(self, supply, capacity):
        """Run a max flow with job j supplying supply[j] (supply[0] is
        unused) on its source arc and on each machine arc, and every machine
        absorbing `capacity`; return the jobs the source still reaches, in
        id order.

        The list is empty exactly when every supply is sent: the source
        reaches a job just when its source arc has room. Otherwise it is a
        Hall violator J, whose supply exceeds `capacity` |Gamma(J)|. The
        reachable machines are full, or the flow would augment, and only
        reachable jobs load them, or a reverse arc would reach the job. A
        reachable job reaches all its permitted machines: an arc it
        saturates carries its whole supply, so its source arc is saturated
        too and the job was reached back through that machine. Some
        reachable job is short of its supply, so the jobs of J send
        `capacity` |Gamma(J)| in all, less than their supply.
        """
        values = [0, *supply[1:], capacity]
        self.cap = [values[o] for o in self._owner]
        self._first_phase()
        while (level := self._levels())[self.sink] >= 0:
            self._blocking_flow(level)
        return [j for j in self._jobs if level[j] >= 0]

    def _first_phase(self):
        """Push Dinic's first blocking flow.

        Every job with supply is at level 1 and every machine it may use at
        level 2, so the first level graph is source -> job -> machine ->
        sink, and Dinic's path search takes jobs in id order, each onto its
        machines in id order, until the job is spent or the machine is full.
        A machine arc carries the job's whole supply, so each push is the
        job's remaining supply or the machine's remaining room.
        """
        cap = self.cap
        for source_arc, fan in self._fans:
            left = supply = cap[source_arc]
            for e, sink_arc in fan:
                if not left:
                    break
                room = cap[sink_arc]
                push = left if left < room else room
                if push:
                    cap[e] -= push
                    cap[e ^ 1] += push
                    cap[sink_arc] -= push
                    cap[sink_arc ^ 1] += push
                    left -= push
            cap[source_arc] = left
            cap[source_arc ^ 1] += supply - left

    def _levels(self):
        """BFS distance from the source over arcs with residual capacity;
        -1 marks nodes it has not labelled.

        It returns as soon as it labels the sink, at level d: a node
        labelled after it has level d or d + 1 and is not the sink, so no
        path of the level graph leads from it to the sink, and leaving it
        unlabelled only spares the phase a dead end. A search that never
        labels the sink labels every node the source reaches.
        """
        out, head, cap, sink = self.out, self.head, self.cap, self.sink
        level = [-1] * len(out)
        level[self.source] = 0
        queue = deque([self.source])
        while queue:
            u = queue.popleft()
            nxt = level[u] + 1
            for e in out[u]:
                v = head[e]
                if level[v] < 0 and cap[e] > 0:
                    level[v] = nxt
                    if v == sink:
                        return level
                    queue.append(v)
        return level

    def _blocking_flow(self, level):
        """Push a blocking flow of the level graph, one path at a time.

        Iterative depth-first search; cursor[u] skips the arcs of u already
        found useless. After each augmentation the search resumes at the
        tail of the path's first saturated arc, whose cursor still points at
        that arc: a search restarted at the source would walk the same
        unsaturated prefix to that node, so the paths, and with them the
        flow, are those of one restarted per path.
        """
        head, cap, out, sink = self.head, self.cap, self.out, self.sink
        cursor = [0] * len(out)
        path = []
        u = self.source
        while True:
            if u == sink:
                delta = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= delta
                    cap[e ^ 1] += delta
                first = next(k for k, e in enumerate(path) if not cap[e])
                u = head[path[first] ^ 1]
                del path[first:]
                continue
            arcs, k, want = out[u], cursor[u], level[u] + 1
            end = len(arcs)
            while k < end:
                e = arcs[k]
                if cap[e] > 0 and level[head[e]] == want:
                    break
                k += 1
            else:
                cursor[u] = k
                if not path:
                    return
                u = head[path.pop() ^ 1]  # dead end: back up, skip that arc
                cursor[u] += 1
                continue
            cursor[u] = k
            path.append(e)
            u = head[e]

    def job_flow(self, supply):
        """(job, machine) -> the positive flow on that arc after `violator`."""
        cap = self.cap
        return {(j, i): f for j, i, e in self.job_arcs if (f := supply[j] - cap[e])}
