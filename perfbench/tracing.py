"""Spans around the package's public calls, recorded from outside the package.

A :class:`Tracer` wraps the public functions where their callers look them
up (``fadegap.gaps.build_chain``, ``fadegap.cli.full_analysis``, ...) while
it is patched in, so the spans of one ``analyze`` call show its stages.
Each span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the operation it belongs to.
Spans stay in memory; the caller writes them out when the run ends.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from fadegap import cli, fading_paper, gaps, worst_case


def _count_chain(counts, chain):
    counts["muf.chains"] += 1
    counts["muf.chain_len"] += chain.segment_count
    counts["muf.active_ratio"] += len(chain.active_states) / chain.pi[-1]


def _count_oracle(counts, result):
    counts["oracle.evals"] += result.iterations


#: (module, attribute, span name, count hook) for every wrapped call site.
#: ``fading_paper_report`` reaches ``analyze`` through ``gaps.full_analysis``.
CALL_SITES = (
    (gaps, "prepare", "channel.prepare", None),
    (gaps, "build_chain", "muf.build_chain", _count_chain),
    (gaps, "optimal_allocation", "allocation.optimal_allocation", None),
    (gaps, "expected_capacity", "allocation.closed_forms", None),
    (gaps, "ergodic_capacity", "channel.capacity", None),
    (gaps, "entropy", "channel.capacity", None),
    (gaps, "full_analysis", "gaps.analyze", None),
    (cli, "full_analysis", "gaps.analyze", None),
    (cli, "brute_force_expected_capacity", "oracle.search", _count_oracle),
    (cli, "closed_form_routes", "allocation.closed_forms", None),
    (cli, "fading_paper_report", "fading_paper.report", None),
    (fading_paper, "prepare", "channel.prepare", None),
    (fading_paper, "ergodic_capacity", "channel.capacity", None),
    (worst_case, "multiplicative_family", "worst_case.family", None),
)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op_id = -1
        self._stack = []
        self._sites = [
            (module, attr, getattr(module, attr), self.wrap(name, getattr(module, attr), hook))
            for module, attr, name, hook in CALL_SITES
        ]

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span named ``name`` (and its count hook) per call."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(counts, out)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Route the package's internal calls through the wrappers."""
        try:
            for module, attr, _, wrapper in self._sites:
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)


def layer_times(spans):
    """Total and self seconds per span name; self time is a span's duration
    minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _, _), child in zip(spans, covered):
        total[name] += end - start
        own[name] += end - start - child
    return total, own
