"""Answer checks that share no code with `abduce`.

An answer is ``None`` (no explanation) or ``(indices, cost)``.  For an
explanation S the checks decide, each with a fresh solver of this file,
that T and S is satisfiable (the model found is re-evaluated clause by
clause) and that T and S and not-M is unsatisfiable.  The answer must
also carry the cost its weights sum to.  The workload-level properties
(cost at most the planted cost, one optimum per instance across
configurations, the analytic family answers) are in :func:`judge`.

Refutations are the slow part, so verdicts are cached in
``cache/verdicts.json`` keyed by a digest of the instance text and the
answer.  ``python3 perfbench/run.py --rebuild-cache`` recomputes the
cache from nothing for every instance the workloads can draw.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os

CACHE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cache",
                     "verdicts.json")


def parse_apf(text):
    """(num_vars, theory, hypotheses as (clause, weight), manifestations)."""
    num_vars, theory, hyps, manifest = None, [], [], []
    for line in text.splitlines():
        toks = line.split()
        if not toks or toks[0] == "c":
            continue
        if toks[0] == "p":
            num_vars = int(toks[2])
            continue
        nums = [int(t) for t in toks[1:]]
        if nums[-1] != 0:
            raise ValueError("clause line must end with 0: %r" % line)
        if toks[0] == "t":
            theory.append(nums[:-1])
        elif toks[0] == "h":
            hyps.append((nums[1:-1], nums[0]))
        elif toks[0] == "m":
            manifest.append(nums[:-1])
        else:
            raise ValueError("unknown line %r" % line)
    return num_vars, theory, hyps, manifest


def _luby(i):
    """i-th term (from 1) of the Luby sequence 1, 1, 2, 1, 1, 2, 4, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Cdcl:
    """A small CDCL solver: two watched literals, 1UIP learning, VSIDS,
    phase saving, Luby restarts.  ``solve()`` returns a model (list of
    bools, index 0 unused) or None when the clauses are unsatisfiable."""

    def __init__(self, num_vars, clauses):
        self.n = num_vars
        self.val = [0] * (num_vars + 1)  # 1 true, -1 false, 0 free
        self.level = [0] * (num_vars + 1)
        self.reason = [None] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)
        self.act = [0.0] * (num_vars + 1)
        self.inc = 1.0
        self.heap = [(0.0, v) for v in range(1, num_vars + 1)]
        self.watch = [[] for _ in range(2 * num_vars + 1)]  # lit + n
        self.trail, self.lim, self.qhead = [], [], 0
        self.ok = True
        for c in clauses:
            self._add(c)

    def _add(self, clause):
        lits = sorted(set(clause))
        if any(-l in lits for l in lits):
            return
        if not lits:
            self.ok = False
        elif len(lits) == 1:
            v = self.val[abs(lits[0])] * (1 if lits[0] > 0 else -1)
            if v == -1:
                self.ok = False
            elif v == 0:
                self._assign(lits[0], None)
        else:
            self.watch[lits[0] + self.n].append(lits)
            self.watch[lits[1] + self.n].append(lits)

    def _assign(self, lit, reason):
        v = abs(lit)
        self.val[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self):
        val, watch, n = self.val, self.watch, self.n
        while self.qhead < len(self.trail):
            false_lit = -self.trail[self.qhead]
            self.qhead += 1
            ws = watch[false_lit + n]
            keep = []
            for idx, c in enumerate(ws):
                if c[0] == false_lit:
                    c[0], c[1] = c[1], c[0]
                other = c[0]
                ov = val[abs(other)]
                if (ov == 1) if other > 0 else (ov == -1):
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    l = c[k]
                    lv = val[abs(l)]
                    if not ((lv == -1) if l > 0 else (lv == 1)):
                        c[1], c[k] = l, false_lit
                        watch[l + n].append(c)
                        break
                else:
                    keep.append(c)
                    if ov == 0:
                        self._assign(other, c)
                    else:
                        keep.extend(ws[idx + 1:])
                        watch[false_lit + n] = keep
                        return c
            watch[false_lit + n] = keep
        return None

    def _bump(self, v):
        self.act[v] += self.inc
        if self.act[v] > 1e100:
            self.act = [a * 1e-100 for a in self.act]
            self.inc *= 1e-100
            self.heap = [(-self.act[u], u) for u in range(1, self.n + 1)
                         if self.val[u] == 0]
            heapq.heapify(self.heap)
        if self.val[v] == 0:
            heapq.heappush(self.heap, (-self.act[v], v))

    def _analyze(self, confl):
        seen = set()
        learnt = [None]
        pending = 0
        lit = None
        i = len(self.trail) - 1
        dl = len(self.lim)
        while True:
            for q in confl:
                if q == lit:
                    continue
                v = abs(q)
                if v in seen or self.level[v] == 0:
                    continue
                seen.add(v)
                self._bump(v)
                if self.level[v] == dl:
                    pending += 1
                else:
                    learnt.append(q)
            while abs(self.trail[i]) not in seen:
                i -= 1
            lit = self.trail[i]
            i -= 1
            confl = self.reason[abs(lit)]
            pending -= 1
            if pending == 0:
                break
        learnt[0] = -lit
        back = 0
        if len(learnt) > 1:
            j = max(range(1, len(learnt)), key=lambda k: self.level[abs(learnt[k])])
            learnt[1], learnt[j] = learnt[j], learnt[1]
            back = self.level[abs(learnt[1])]
        self.inc /= 0.95
        return learnt, back

    def _backjump(self, lvl):
        if len(self.lim) <= lvl:
            return
        for lit in self.trail[self.lim[lvl]:]:
            v = abs(lit)
            self.phase[v] = lit > 0
            self.val[v] = 0
            self.reason[v] = None
            heapq.heappush(self.heap, (-self.act[v], v))
        del self.trail[self.lim[lvl]:]
        del self.lim[lvl:]
        self.qhead = len(self.trail)

    def solve(self):
        if not self.ok or self._propagate() is not None:
            return None
        restarts, budget = 1, 100
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.lim:
                    return None
                learnt, back = self._analyze(confl)
                self._backjump(back)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    self.watch[learnt[0] + self.n].append(learnt)
                    self.watch[learnt[1] + self.n].append(learnt)
                    self._assign(learnt[0], learnt)
                budget -= 1
                if budget == 0:
                    restarts += 1
                    budget = 100 * _luby(restarts)
                    self._backjump(0)
                continue
            v = 0
            while self.heap:
                _, u = heapq.heappop(self.heap)
                if self.val[u] == 0:
                    v = u
                    break
            if v == 0:
                return [False] + [self.val[u] == 1 for u in range(1, self.n + 1)]
            self.lim.append(len(self.trail))
            self._assign(v if self.phase[v] else -v, None)


def _satisfies(model, clauses):
    return all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def explanation_verdict(text, indices):
    """'ok', or why ``indices`` is not an explanation of the instance."""
    num_vars, theory, hyps, manifest = parse_apf(text)
    if len(set(indices)) != len(indices) or not all(
            0 <= i < len(hyps) for i in indices):
        return "bad-indices"
    chosen = [hyps[i][0] for i in indices]
    model = Cdcl(num_vars, theory + chosen).solve()
    if model is None or not _satisfies(model, theory + chosen):
        return "inconsistent"
    # not-M: selector a_j implies every literal of M_j false; some a_j holds
    sel = list(range(num_vars + 1, num_vars + 1 + len(manifest)))
    neg_m = [[-a, -l] for a, c in zip(sel, manifest) for l in c]
    neg_m.append(sel)
    model = Cdcl(num_vars + len(sel), theory + chosen + neg_m).solve()
    if model is not None:
        if not (_satisfies(model, theory + chosen)
                and not _satisfies(model, manifest)):
            raise RuntimeError("checker returned a non-model")
        return "not-entailed"
    return "ok"


def answer_key(text, answer):
    h = hashlib.sha256(text.encode())
    h.update(json.dumps(answer).encode())
    return h.hexdigest()[:32]


class VerdictCache:
    """Verdicts of :func:`explanation_verdict`, keyed by :func:`answer_key`."""

    def __init__(self, path=CACHE):
        """``path=None`` keeps the verdicts in memory only."""
        self.path = path
        self.added = 0
        self.verdicts = {}
        if path is not None and os.path.exists(path):
            with open(path) as fh:
                self.verdicts = json.load(fh)

    def verdict(self, text, indices):
        key = answer_key(text, sorted(indices))
        if key not in self.verdicts:
            self.verdicts[key] = explanation_verdict(text, sorted(indices))
            self.added += 1
        return self.verdicts[key]

    def save(self):
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.verdicts, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


def judge(inst, answers, cache):
    """Problems with the answers one instance got, as a list of strings.

    ``answers`` maps a configuration name to its answer (None or
    [indices, cost]).  An empty list means every answer passed.
    """
    problems = []
    costs = set()
    for config, ans in sorted(answers.items()):
        if "answer" in inst:  # analytic family
            expect = inst["answer"]
            if expect is None:
                if ans is not None:
                    problems.append("%s: explanation where none exists" % config)
                continue
            if ans is None:
                problems.append("%s: no explanation where one exists" % config)
                continue
            if sorted(ans[0]) != expect or ans[1] != len(expect):
                problems.append("%s: not the analytic answer %r" % (config, ans))
                continue
        elif ans is None:
            problems.append("%s: no explanation, but the planted subset is one"
                            % config)
            continue
        indices, cost = ans
        verdict = cache.verdict(inst["text"], indices)
        if verdict != "ok":
            problems.append("%s: %s %r" % (config, verdict, ans))
            continue
        if cost != sum(inst["weights"][i] for i in indices):
            problems.append("%s: cost %d is not the sum of its weights" % (config, cost))
        if "planted_cost" in inst and cost > inst["planted_cost"]:
            problems.append("%s: cost %d above the planted cost %d"
                            % (config, cost, inst["planted_cost"]))
        costs.add(cost)
    if len(costs) > 1:
        problems.append("configurations disagree on the optimum: %r" % sorted(costs))
    return problems
