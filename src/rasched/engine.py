"""Blocker-tree local search: insert one huge job into a valid partial schedule.

The engine keeps an ordered tree of blockers (moves it wants to perform,
typed by what they make undesirable on their target machine), arranged in
layers of five sublayers each. Each loop iteration either performs the valid
move in the lowest sublayer or adds the highest-priority potential move to
the lowest possible layer; when neither is possible below the layer cap, the
search is stuck and the final tree certifies that the guess was too small.
`InsertionEngine.run` returns the schedule once the job is placed, or, once
stuck, the engine itself, whose final tree a certificate is built from.
Both edits change only the tail of the (layer, sublayer, stamp) order, so
the tree is one stack of live blockers.

A small job is blocked within a prefix of the tree when each permitted
machine other than its own carries, within the prefix, its one
all-undesirable blocker, its cover (`InsertionEngine.cover`). Its blocking
layer (`InsertionEngine.blocking_layers`) is the first prefix that blocks
it, and a load condition at layer k sums the machine's small jobs whose
blocking layer is at most k.

Every load condition sums the instance's integer sizes q and compares the
sum with a floor cap of the guess (`ScaledInstance.cap`, or `huge_cap`
beside a huge job); the schedule keeps each machine's small and medium load
(`Schedule.plain_load`), so no condition sums a machine's jobs anew. These
caps and the job classes are all the search reads of the guess
(`ScaledInstance.engine_image`).

Determinism: additions tie-break by (job id, machine id), valid moves by
insertion stamp, so identical inputs replay identical event sequences.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

from .model import Schedule, UNASSIGNED, validate_partial_schedule

WATCHDOG = 10 ** 6  # iterations after which a run is taken to be a bug


class EngineInvariantError(RuntimeError):
    """An internal invariant failed; indicates a bug, never an input error."""


class BlockerType(enum.Enum):
    """What a blocker makes undesirable on its target machine. Each type
    carries its trace code, its sublayer, its priority among potential
    moves (the highest is added first) and whether it makes every job
    undesirable there."""

    BB = "bb", 1, 5, False  # huge or medium mover; huge jobs undesirable on the target
    BS = "bs", 2, 3, True  # huge mover; all jobs undesirable
    MS = "ms", 2, 3, True  # medium mover; all jobs undesirable
    S = "s", 3, 4, True  # small mover; all jobs undesirable
    M = "m", 4, 2, False  # huge mover; mediums up to the smallest medium undesirable
    MM = "mm", 5, 1, False  # huge mover; all mediums undesirable

    def __init__(self, code, sublayer, priority, all_undesirable):
        self.code = code
        self.sublayer = sublayer
        self.priority = priority
        self.all_undesirable = all_undesirable


@lru_cache(maxsize=64)
def layer_cap(num_machines: int, epsilon) -> int:
    """Highest layer the search may use: ceil((2/epsilon) * ceil(ln m + 1))."""
    t = max(1, math.ceil(math.log(num_machines) + 1))
    while math.exp(t - 1) < num_machines:  # float guard at the boundary
        t += 1
    return -(-2 * t * epsilon.denominator // epsilon.numerator)


class Blocker:
    __slots__ = ("job", "machine", "btype", "sublayer", "layer", "stamp", "parent", "alive")

    def __init__(self, job, machine, btype, layer, stamp, parent):
        self.job = job
        self.machine = machine
        self.btype = btype
        self.sublayer = btype.sublayer
        self.layer = layer
        self.stamp = stamp
        self.parent = parent  # Blocker or None for children of the root
        self.alive = True

    def position(self):
        return (self.layer, self.sublayer, self.stamp)

    def __repr__(self):
        return (f"Blocker(j{self.job}->m{self.machine} {self.btype.code}"
                f" L{self.layer}.{self.sublayer} #{self.stamp})")


class BlockerTree:
    """The live blockers as one stack in (layer, sublayer, stamp) order.

    One list suffices because every change is at its tail: an addition
    drops every blocker after its own sublayer and then goes last (its stamp
    is the newest), and a move drops every blocker after its activator's
    sublayer, then maybe that sublayer too. A popped blocker is therefore
    also the last entry in its machine's list, so the per-machine lists and
    the set of live moves follow each push and pop. Stamps increase along
    the stack, so they increase along each machine's list too.
    """

    def __init__(self):
        self._stack = []
        self._by_machine = {}  # machine -> its live blockers, in stack order
        self._moves = set()  # live (job, machine) moves
        self._stamp = 0

    def next_stamp(self) -> int:
        self._stamp += 1
        return self._stamp

    def blockers(self):
        """All live blockers in (layer, sublayer, stamp) order; read-only."""
        return self._stack

    def machines(self):
        """The machines that live blockers target."""
        return self._by_machine.keys()

    def blockers_on(self, machine):
        """The live blockers targeting `machine`, in `blockers()` order."""
        return self._by_machine.get(machine, ())

    def contains_move(self, job, machine) -> bool:
        return (job, machine) in self._moves

    def push(self, blocker: Blocker) -> int:
        """Drop the blockers after the new one's sublayer, then append it;
        returns the number dropped."""
        if self.contains_move(blocker.job, blocker.machine):
            raise EngineInvariantError(f"{blocker} repeats a live move")
        dropped = self.truncate(blocker.layer, blocker.sublayer)
        self._stack.append(blocker)
        self._by_machine.setdefault(blocker.machine, []).append(blocker)
        self._moves.add((blocker.job, blocker.machine))
        return dropped

    def truncate(self, layer: int, sub: int, *, inclusive: bool = False) -> int:
        """Pop every blocker after sublayer (layer, sub), or from it on when
        `inclusive`; returns the number popped."""
        stop = (layer, sub) if inclusive else (layer, sub + 1)
        popped = 0
        while self._stack and (self._stack[-1].layer, self._stack[-1].sublayer) >= stop:
            b = self._stack.pop()
            b.alive = False
            on_machine = self._by_machine[b.machine]
            on_machine.pop()
            if not on_machine:
                del self._by_machine[b.machine]
            self._moves.discard((b.job, b.machine))
            popped += 1
        return popped


class InsertionEngine:
    def __init__(self, schedule: Schedule, j_new: int, *, audit: bool = False,
                 log_events: bool = False):
        scaled = schedule.scaled
        if not scaled.is_huge(j_new):
            raise ValueError("only huge jobs are inserted by the search")
        if schedule.machine_of(j_new) is not UNASSIGNED:
            raise ValueError("job to insert must be unassigned")
        self.scaled = scaled
        self.schedule = schedule
        self.j_new = j_new
        self.K = layer_cap(scaled.base.num_machines, scaled.epsilon)
        self.tree = BlockerTree()
        self.audit = audit
        self.stuck_reason = None  # "no-potential-move" | "layer-overflow" once stuck
        self.iterations = 0
        self.moves = 0
        self.adds = 0
        self.events = [] if log_events else None
        self.checkpoints = []  # (kind, signature) at add / run-end checkpoints
        self.signature_dips = []  # run-end checkpoints that failed to increase
        self._last_add_checkpoint = None
        self._pending_move_sig = None  # the signature after a run's last move
        self._q = scaled.base.integer_image[1]
        self._smalls = range(1, scaled.small_end)  # ids are sorted by size

    # ---------- derived sets ----------

    def cover(self):
        """Machine -> its one all-undesirable blocker (BS, MS or S).

        A machine carries at most one. Once it carries one at layer k, every
        job is undesirable there within each prefix from k on, so no
        addition at layer k or above targets it; an addition below k drops
        it, since `push` drops every blocker after the new one's sublayer.
        `check_invariants` reports a second one. Read off the tree on every
        call."""
        return {b.machine: b for b in self.tree.blockers() if b.btype.all_undesirable}

    def blocking_layers(self, smalls):
        """Small job of `smalls` -> its blocking layer, the first prefix
        that blocks it: the deepest cover over its permitted machines other
        than its own, 0 without one. A job with such a machine uncovered
        is never blocked and left out."""
        cover, assignment, gamma = self.cover(), self.schedule.assignment, self.scaled.base.gamma
        out = {}
        for j in smalls:
            others = [cover.get(i) for i in gamma[j] if i != assignment[j]]
            if None not in others:
                out[j] = max((b.layer for b in others), default=0)
        return out

    def marks_undesirable(self, blocker: Blocker, j) -> bool:
        """Does this blocker make job j undesirable on the blocker's machine?"""
        btype = blocker.btype
        if btype.all_undesirable:
            return True
        sc = self.scaled
        if btype is BlockerType.BB:
            return j >= sc.huge_start
        if not sc.small_end <= j < sc.huge_start:  # not medium
            return False
        if btype is BlockerType.MM:
            return True
        mn = self.schedule.min_medium(blocker.machine)  # M: up to the smallest medium
        return mn is not None and j <= mn

    def undesirable_on(self, j, i, prefix) -> bool:
        """Is job j undesirable on machine i w.r.t. the prefix's blockers?"""
        return any(self.marks_undesirable(b, j) for b in self.tree.blockers_on(i)
                   if b.layer <= prefix)

    def activator_of(self, j):
        """Earliest-stamped live blocker for sigma(j) that marks j undesirable:
        the first in `blockers_on`, whose stamps increase."""
        home = self.schedule.machine_of(j)
        if home is UNASSIGNED:
            return None
        for b in self.tree.blockers_on(home):
            if self.marks_undesirable(b, j):
                return b
        return None

    def head_layer_from(self, parent: Blocker | None, j) -> int:
        """Layer where blockers for j would be placed, given its activator."""
        if parent is None:
            return 1  # children of the root
        if parent.btype is BlockerType.BB:
            return parent.layer
        if parent.btype is BlockerType.BS and self.scaled.is_small(j):
            return parent.layer
        return parent.layer + 1

    def heads(self):
        """Job -> head layer, the layer its blockers would go to: 1 for
        j_new, and the child layer of the activator for every job that is
        undesirable where it sits."""
        heads = {self.j_new: 1}
        # only a job on a blocker's machine can have an activator
        for i in self.tree.machines():
            for j in self.schedule.on_machine[i]:
                parent = self.activator_of(j)
                if parent is not None and j != self.j_new:
                    heads[j] = self.head_layer_from(parent, j)
        return heads

    def value_layers(self):
        """Active job (j_new, a blocked small job, or one undesirable where it
        sits) -> the smallest layer at which it qualifies: its head layer, or
        for a blocked small job its blocking layer (at least 1), if smaller."""
        layers = self.heads()
        for j, k in self.blocking_layers(self._smalls).items():
            k = max(1, k)
            layers[j] = min(layers.get(j, k), k)
        return layers

    # ---------- move classification ----------

    def _sum_sizes(self, jobs):
        q = self._q
        return sum(q[j] for j in jobs)

    def _small_and_min_medium(self, i, layer):
        """The q-size of the small jobs on i blocked within layers <= layer,
        and that of i's smallest medium job (0 without one)."""
        q, small_end = self._q, self.scaled.small_end
        blocking = self.blocking_layers(j for j in self.schedule.on_machine[i] if j < small_end)
        s_sum = sum(q[j] for j, k in blocking.items() if k <= layer)
        mn = self.schedule.min_medium(i)
        return s_sum, (q[mn] if mn is not None else 0)

    def classify_potential_move(self, j, i, k):
        """Blocker type the move (j, i) would get in layer k, or None.

        None when the move is already in the tree, j is undesirable on i
        w.r.t. the prefix, or no load condition row matches.
        """
        if self.tree.contains_move(j, i):
            return None
        if self.undesirable_on(j, i, prefix=k):
            return None
        sc = self.scaled
        cap = sc.cap
        p_j = self._q[j]
        if j < sc.small_end:
            return BlockerType.S
        a = self.schedule.plain_load[i] + p_j
        if j < sc.huge_start:  # medium
            return BlockerType.BB if a <= cap else BlockerType.MS
        if a <= cap:
            return BlockerType.BB
        s_sum, min_sum = self._small_and_min_medium(i, k)
        if s_sum + self._sum_sizes(self.schedule.mediums[i]) + p_j <= cap:
            return BlockerType.BS
        if s_sum + min_sum + p_j <= cap:
            return BlockerType.MM
        if s_sum + p_j <= cap:
            return BlockerType.M
        return None

    def starred_conditions_hold(self, b: Blocker) -> bool:
        """Re-check the conditions marked for re-evaluation on the blocker's
        type against the current schedule (using the blocker's own layer)."""
        sc = self.scaled
        cap = sc.cap
        p_j = self._q[b.job]
        if b.btype in (BlockerType.BB, BlockerType.S):
            return True
        if b.btype in (BlockerType.MS, BlockerType.BS):
            return self.schedule.plain_load[b.machine] + p_j > cap
        s_sum, min_sum = self._small_and_min_medium(b.machine, b.layer)
        if b.btype is BlockerType.M:
            return s_sum + min_sum + p_j > cap
        mediums_sum = self._sum_sizes(self.schedule.mediums[b.machine])
        return (s_sum + mediums_sum + p_j > cap) and (s_sum + min_sum + p_j <= cap)

    # ---------- the loop pieces ----------

    def move_is_valid(self, j, i) -> bool:
        sched, sc = self.schedule, self.scaled
        if sched.machine_of(j) == i:
            return False
        if sc.is_huge(j) and sched.huges[i]:
            return False
        # beside a huge job (one at most) the room is R, else 1 + R
        return sched.plain_load[i] + self._q[j] <= (sc.huge_cap if sched.huges[i] else sc.cap)

    def find_valid_move(self):
        """Live blocker with a valid move in the lowest (layer, sublayer),
        ties within a sublayer by insertion stamp."""
        for b in self.tree.blockers():
            if self.move_is_valid(b.job, b.machine):
                return b
        return None

    def select_addition(self):
        """Highest-priority potential move at the minimum head layer.

        Returns (j, i, type, layer), or the string "layer-overflow" /
        "no-potential-move" when the search is stuck.
        """
        sched = self.schedule
        by_layer = {}
        for j, k in self.heads().items():
            by_layer.setdefault(k, []).append(j)
        for k in sorted(by_layer):
            candidates = []
            for j in sorted(by_layer[k]):
                home = sched.machine_of(j)
                for i in self.scaled.base.sorted_gamma[j]:
                    if i == home:
                        continue
                    btype = self.classify_potential_move(j, i, k)
                    if btype is not None:
                        candidates.append((-btype.priority, j, i, btype))
            if candidates:
                if k > self.K:
                    return "layer-overflow"
                _, j, i, btype = min(candidates)
                return (j, i, btype, k)
        return "no-potential-move"

    def add_blocker(self, j, i, btype, layer) -> Blocker:
        parent = None if j == self.j_new else self.activator_of(j)
        if j != self.j_new and parent is None:
            raise EngineInvariantError(f"no activator for job {j} at add time")
        b = Blocker(j, i, btype, layer, self.tree.next_stamp(), parent)
        removed = self.tree.push(b)
        self.adds += 1
        sig = self.signature_vector()
        self._checkpoint(sig, "add")
        self._log("add", b, sig, removed)
        return b

    def execute_move(self, b: Blocker) -> bool:
        """Perform the blocker's move; True when the new job got assigned."""
        j, target = b.job, b.machine
        self.schedule.move(j, target)
        self.moves += 1
        if j == self.j_new:
            if self.events is not None:  # the signature is only logged here
                self._log("move", b, self.signature_vector(), 0)
            return True
        parent = b.parent
        if parent is None or not parent.alive:
            raise EngineInvariantError("executed blocker lost its activator")
        removed = self.tree.truncate(parent.layer, parent.sublayer)
        # The run-end checkpoint measures the potential here, before the
        # starred-condition prune of the activator's own sublayer; pruning
        # first would make the measured potential non-monotone.
        sig = self.signature_vector()
        self._pending_move_sig = sig
        if not self.starred_conditions_hold(parent):
            extra = self.tree.truncate(parent.layer, parent.sublayer, inclusive=True)
            if extra:
                self._log("delete", parent, None, extra)
            removed += extra
        self._log("move", b, sig, removed)
        return False

    # ---------- signature & checkpoints ----------

    def signature_vector(self):
        """Per-layer 5-tuples of sublayer potentials, layers 1..last occupied."""
        live = self.tree.blockers()
        if not live:
            return ()
        n = self.scaled.base.num_jobs
        sched = self.schedule
        out = [[0, 0, 0, 0, 0] for _ in range(live[-1].layer)]
        for b in live:
            i = b.machine
            if b.btype is BlockerType.BB:
                term = n - len(sched.huges[i])
            elif b.btype is BlockerType.M:
                mn = sched.min_medium(i)
                term = mn if mn is not None else 0
            elif b.btype is BlockerType.MM:
                term = n - len(sched.mediums[i])
            else:  # BS, MS and S
                term = n - len(sched.on_machine[i])
            out[b.layer - 1][b.sublayer - 1] += term
        return tuple(map(tuple, out))

    @staticmethod
    def signature_lt(a, b) -> bool:
        """Lexicographic order with absent trailing components read as zero."""
        width = max(len(a), len(b))
        pad = ((0, 0, 0, 0, 0),)
        return a + pad * (width - len(a)) < b + pad * (width - len(b))

    def _checkpoint(self, sig, kind):
        """Record a potential checkpoint and police monotonicity.

        The sequence of add checkpoints provably increases strictly (the new
        blocker's positive term lands at the lowest touched position, and no
        component before it ever shrinks while the activator chain survives),
        so a violation there is a hard error. Run-end checkpoints are
        expected to increase as well but can legitimately dip when the final
        move's activator loses its own sublayer term (e.g. the machine of a
        min-medium blocker losing its last medium job just before the starred
        prune); those dips are recorded, not fatal, and the following add
        restores the order by landing in a strictly smaller sublayer.
        """
        last = self.checkpoints[-1][1] if self.checkpoints else None
        if last is not None and not self.signature_lt(last, sig):
            if kind == "run-end":
                self.signature_dips.append((last, sig))
            else:
                raise EngineInvariantError(
                    f"signature did not increase at {kind} checkpoint: {last} -> {sig}")
        if kind == "add":
            if self._last_add_checkpoint is not None and not self.signature_lt(
                    self._last_add_checkpoint, sig):
                raise EngineInvariantError(
                    f"signature did not increase across add checkpoints: "
                    f"{self._last_add_checkpoint} -> {sig}"
                )
            self._last_add_checkpoint = sig
        self.checkpoints.append((kind, sig))

    def _close_move_run(self):
        if self._pending_move_sig is not None:
            self._checkpoint(self._pending_move_sig, "run-end")
            self._pending_move_sig = None

    def _log(self, event, b, sig, removed):
        if self.events is None:
            return
        self.events.append({
            "iteration": self.iterations,
            "event": event,
            "job": b.job,
            "machine": b.machine,
            "type": b.btype.code,
            "layer": b.layer,
            "sublayer": b.sublayer,
            "signature": [list(c) for c in sig] if sig is not None else None,
            "removed": removed,
        })

    # ---------- audit ----------

    def check_invariants(self):
        """Loop-top invariant suite; returns a list of violation strings."""
        sc, sched, tree = self.scaled, self.schedule, self.tree
        cap = sc.cap
        out = []
        live = tree.blockers()
        seen_moves = set()
        sma_machines = set()
        layer_of_job = {}
        prev_stamp = 0
        for b in live:
            if b.stamp <= prev_stamp:
                out.append(f"{b} is not newer than the blocker before it")
            prev_stamp = b.stamp
            key = (b.job, b.machine)
            if key in seen_moves:
                out.append(f"duplicate move {key} in tree")
            seen_moves.add(key)
            if b.btype.all_undesirable:
                if b.machine in sma_machines:
                    out.append(f"machine {b.machine} in two all-undesirable blockers")
                sma_machines.add(b.machine)
            if b.parent is not None:
                if not b.parent.alive:
                    out.append(f"{b} has a dead activator")
                elif b.parent.position() > b.position():
                    out.append(f"{b} precedes its activator")
                expected = self.head_layer_from(b.parent, b.job)
                if b.layer != expected:
                    out.append(f"{b} sits in layer {b.layer}, child rule says {expected}")
            elif b.job != self.j_new:
                out.append(f"{b} is rootless but not the inserted job")
            prev = layer_of_job.get(b.job)
            if prev is not None and prev != b.layer:
                out.append(f"job {b.job} has blockers in layers {prev} and {b.layer}")
            layer_of_job[b.job] = b.layer

            p_j = self._q[b.job]
            if b.btype is BlockerType.BB:
                if sched.plain_load[b.machine] + p_j > cap:
                    out.append(f"{b}: huge-target load condition broke")
            elif b.btype in (BlockerType.BS, BlockerType.MS):
                if sched.plain_load[b.machine] + p_j <= cap:
                    out.append(f"{b}: overload condition no longer holds")
            elif b.btype is BlockerType.M:
                s_sum, min_sum = self._small_and_min_medium(b.machine, b.layer)
                if s_sum + min_sum + p_j <= cap:
                    out.append(f"{b}: min-medium condition no longer holds")
                if not sched.mediums[b.machine]:
                    out.append(f"{b}: machine lost all medium jobs")
            elif b.btype is BlockerType.MM:
                if len(sched.mediums[b.machine]) < 2:
                    out.append(f"{b}: machine has fewer than two medium jobs")
        for i in sc.base.machines:
            if sched.plain_load[i] != self._sum_sizes(sched.on_machine[i] - sched.huges[i]):
                out.append(f"machine {i} small and medium load drifted")
        out.extend(validate_partial_schedule(sched))
        return out

    # ---------- main loop ----------

    def run(self):
        """Insert the job and return the schedule, or return the engine,
        `stuck_reason` set, whose final tree certifies failure."""
        while True:
            self.iterations += 1
            if self.iterations > WATCHDOG:
                raise EngineInvariantError("iteration watchdog exceeded")
            if self.audit:
                violations = self.check_invariants()
                if violations:
                    raise EngineInvariantError("; ".join(violations))
            blocker = self.find_valid_move()
            if blocker is not None:
                if self.execute_move(blocker):
                    return self.schedule
                continue
            self._close_move_run()
            selection = self.select_addition()
            if isinstance(selection, str):
                self.stuck_reason = selection
                return self
            self.add_blocker(*selection)
