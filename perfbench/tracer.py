"""Layer spans for an in-process replay, recorded from outside the program.

The tracer replaces public functions of the workbench's modules at the
sites they are called from (for example ``congruence.frac_partition_series``
or ``qseries.Series.__mul__``) with wrappers that record a span.  No file
of the program is edited, and :meth:`Tracer.uninstall` puts every
original back.

A span is ``(name, start, end, parent, job)``: ``parent`` is the index of
the enclosing span (or None) and ``job`` the id of the CLI run it belongs
to.  Spans stay in memory until the run writes them out.  A span's self
time is its duration minus the durations of its direct children; the
replay is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._kept_series: list = []
        self._patches: list = []

    # -- installation -----------------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a span-recording wrapper.

        ``before(args)`` runs ahead of the call and ``after(result)`` after
        the span closes; both only update counts.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.job)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, modules):
        """Wrap every layer boundary the per-layer metrics need."""
        cli, congruence, forms, qseries = (
            modules["cli"], modules["congruence"], modules["forms"], modules["qseries"]
        )
        def add(key, value):
            self.counts[key] += value

        def keep(series):
            self._kept_series.append(series)

        def pow_terms(args):
            add("qseries.pow_rational.terms", args[0].prec)

        def claim_terms(args):
            add("congruence.series_terms", args[1])

        self.patch(qseries, "series_pow_rational", "qseries.pow_rational", pow_terms, keep)
        self.patch(qseries, "euler_product", "qseries.euler")
        self.patch(forms, "euler_product", "qseries.euler")
        self.patch(qseries.Series, "__mul__", "qseries.mul")
        self.patch(forms, "series_pow_int", "qseries.pow_int")
        self.patch(cli, "frac_partition_series", "qseries.frac_partition")
        self.patch(congruence, "frac_partition_series", "qseries.frac_partition", claim_terms)
        self.patch(
            congruence, "extract_progression", "qseries.extract",
            after=lambda s: add("congruence.terms_checked", s.prec),
        )
        self.patch(congruence, "series_reduce_mod", "qseries.reduce_mod")
        self.patch(cli, "series_reduce_mod", "qseries.reduce_mod")
        self.patch(qseries, "reduce_mod_prime_power", "arith.reduce_mod")
        self.patch(congruence, "padic_ord", "arith.padic_ord")
        for family in ("cw", "t1", "t2", "t3", "remark"):
            self.patch(cli, f"build_{family}_claim", "congruence.build")
        self.patch(cli, "verify_claim", "congruence.verify")
        self.patch(cli, "sharpness_probe", "congruence.sharpness")
        self.patch(cli, "certificate_line", "congruence.certificate")
        for owner in (cli, congruence):
            self.patch(
                owner, "find_w", "congruence.find_w",
                after=lambda w: add("congruence.find_w.steps", w),
            )
        self.patch(cli, "find_residues", "congruence.find_residues")
        self.patch(cli, "eta_power", "forms.eta_power", after=keep)
        self.patch(forms, "eta_power", "forms.eta_power", after=keep)
        self.patch(cli, "evaluate_rational", "intexpr")
        self.patch(cli, "evaluate_int", "intexpr")
        self.patch(cli, "main", "cli")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- collection -------------------------------------------------------

    def end_job(self):
        """Fold the largest coefficient size of the job's series into the counts.

        Done between jobs so that the bit counting is in no span.
        """
        bits = self.counts["qseries.max_coeff_bits"]
        for series in self._kept_series:
            for c in series.coeffs:
                bits = max(bits, int(c.numerator).bit_length(), int(c.denominator).bit_length())
        self.counts["qseries.max_coeff_bits"] = bits
        self._kept_series.clear()

    def take(self):
        """Return and reset (spans, counts)."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Per span name: number of calls, total duration, total self time."""
    calls: Counter = Counter()
    total = defaultdict(float)
    child = defaultdict(float)
    for name, start, end, parent, _job in spans:
        calls[name] += 1
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    self_time = defaultdict(float)
    for index, (name, start, end, _parent, _job) in enumerate(spans):
        self_time[name] += end - start - child[index]
    return dict(calls), dict(total), dict(self_time)
