//! The probe: one typed call per protocol fact, fanned out to the run's
//! live diagnostic sinks.
//!
//! A run owns exactly one [`Probe`], inside the scheduler state. It holds
//! the event trace ([`crate::trace`]), the interval metrics
//! ([`crate::metrics`]) and the sharing tracker ([`crate::sharing`]), each
//! present only when the [`crate::RunConfig`] asks for it. Platforms borrow
//! the probe through [`crate::Timing`] and through the grant/barrier
//! release hooks of [`crate::Platform`], and report what their protocol
//! did — a page fetch, a diff, an invalidation, a remote miss — as one
//! call each; which sink records which part of a fact is decided here,
//! not in the platform crates.
//!
//! Gating is uniform:
//! * trace and metrics record only while the timed region is active;
//! * the sharing tracker records from the start of the timed region on,
//!   including after it stops (it is cleared at `start_timing`).
//!
//! Recording never charges cycles or touches statistics, so every layer is
//! invisible. With no sink configured a fact costs one predictable branch.

use crate::metrics::{MetricsReport, MetricsSink, ProcSample};
use crate::sharing::{SharingProfile, SharingTracker};
use crate::stats::{Bucket, ProcStats};
use crate::trace::{AllocSpan, DepKind, EventKind, RunTrace, TraceSink};

/// A remote page fetch that stalled processor `pid` over `(t0, t1]`.
#[derive(Clone, Copy, Debug)]
pub struct PageFetch {
    /// The faulting processor.
    pub pid: usize,
    /// Its protocol node (the reader in the sharing profile).
    pub node: usize,
    /// Page base address.
    pub page: u64,
    /// The node the page came from.
    pub home: usize,
    /// The processor standing in for the serving side in the
    /// critical-path edge.
    pub server: usize,
    /// Bytes moved over the interconnect.
    pub bytes: u64,
    /// Fault time.
    pub t0: u64,
    /// Time the page was installed.
    pub t1: u64,
}

/// A diff computed for a page: traced on `pid`, which spent `(t0, t1]`
/// creating it, and attributed to virtual time `at` by the metrics.
#[derive(Clone, Copy, Debug)]
pub struct DiffCreated<'a> {
    /// The processor the creation is traced on.
    pub pid: usize,
    /// The writing protocol node.
    pub node: usize,
    /// Page base address.
    pub page: u64,
    /// The word footprint: `(first word, word count)` per contiguous run.
    pub runs: &'a [(u32, u32)],
    /// Bytes the diff moves over the interconnect (0 when archived
    /// locally).
    pub bytes: u64,
    /// The metrics timestamp.
    pub at: u64,
    /// Start of the creating processor's stall.
    pub t0: u64,
    /// End of the stall; the creation event's timestamp.
    pub t1: u64,
}

/// The run's diagnostic sinks and the timed-region flag that gates them.
pub struct Probe {
    timing_on: bool,
    /// No sink at all: every fact returns after one branch.
    idle: bool,
    // Boxed, so the probe stays a few words wide inside the scheduler's
    // hot state.
    trace: Option<Box<TraceSink>>,
    metrics: Option<Box<MetricsSink>>,
    sharing: Option<Box<SharingTracker>>,
}

impl Probe {
    pub(crate) fn new(
        trace: Option<TraceSink>,
        metrics: Option<MetricsSink>,
        sharing: Option<SharingTracker>,
    ) -> Self {
        Self {
            timing_on: false,
            idle: trace.is_none() && metrics.is_none() && sharing.is_none(),
            trace: trace.map(Box::new),
            metrics: metrics.map(Box::new),
            sharing: sharing.map(Box::new),
        }
    }

    /// True inside the timed region (`start_timing` .. `stop_timing`).
    #[inline]
    pub fn timing_on(&self) -> bool {
        self.timing_on
    }

    /// The trace sink, if the run is traced and the timed region is active.
    #[inline]
    fn trace(&mut self) -> Option<&mut TraceSink> {
        self.trace.as_deref_mut().filter(|_| self.timing_on)
    }

    /// The metrics sink, if the run records metrics and the timed region is
    /// active.
    #[inline]
    fn metrics(&mut self) -> Option<&mut MetricsSink> {
        self.metrics.as_deref_mut().filter(|_| self.timing_on)
    }

    // ---- protocol facts (platform crates) ----

    /// A remote page fetch (page-based platforms).
    #[inline]
    pub fn page_fetch(&mut self, f: PageFetch) {
        if !self.idle {
            self.record_page_fetch(&f);
        }
    }

    #[inline(never)]
    fn record_page_fetch(&mut self, f: &PageFetch) {
        if let Some(sh) = &mut self.sharing {
            sh.fetch(f.page, f.node, f.bytes);
        }
        if let Some(tr) = self.trace() {
            let (page, home, bytes) = (f.page, f.home, f.bytes);
            tr.push(f.pid, f.t0, EventKind::PageFetchStart { page, home, bytes });
            tr.push(f.pid, f.t1, EventKind::PageFetchDone { page, home, bytes });
            tr.sample_fetch(f.pid, f.t1 - f.t0);
            let kind = DepKind::PageFetch { page, bytes };
            tr.push_edge(kind, f.pid, f.t0, f.t1, f.server, f.t0);
        }
        if let Some(m) = self.metrics() {
            m.page_fetch(f.t1, f.page);
        }
    }

    /// A diff was computed (page-based platforms).
    #[inline]
    pub fn diff_created(&mut self, d: DiffCreated) {
        if !self.idle {
            self.record_diff_created(&d);
        }
    }

    #[inline(never)]
    fn record_diff_created(&mut self, d: &DiffCreated) {
        if let Some(sh) = &mut self.sharing {
            sh.diff(d.page, d.node, d.runs, d.bytes);
        }
        if let Some(tr) = self.trace() {
            let page = d.page;
            tr.push_edge(DepKind::Diff { page }, d.pid, d.t0, d.t1, d.pid, d.t0);
            tr.push(d.pid, d.t1, EventKind::DiffCreated { page });
        }
        if let Some(m) = self.metrics() {
            let words = d.runs.iter().flat_map(|&(first, n)| first..first + n);
            m.page_diff(d.at, d.page, d.node as u16, words);
        }
    }

    /// A diff of `page` was applied, traced on `pid` at virtual time `at`
    /// (at the HLRC home, or archived at the writer under TreadMarks-LRC).
    #[inline]
    pub fn diff_applied(&mut self, pid: usize, page: u64, at: u64) {
        if let Some(tr) = self.trace() {
            tr.push(pid, at, EventKind::DiffApplied { page });
        }
    }

    /// A write notice invalidated a copy of `page`, traced on `pid` at
    /// virtual time `at` (page-based platforms).
    #[inline]
    pub fn inval(&mut self, pid: usize, page: u64, at: u64) {
        if !self.idle {
            self.record_inval(pid, page, at);
        }
    }

    #[inline(never)]
    fn record_inval(&mut self, pid: usize, page: u64, at: u64) {
        if let Some(sh) = &mut self.sharing {
            sh.inval(page);
        }
        if let Some(m) = self.metrics() {
            m.page_inval(at, page);
        }
        if let Some(tr) = self.trace() {
            tr.push(pid, at, EventKind::Invalidation { page });
        }
    }

    /// A hardware coherence miss on `line` stalled `pid` for `stall` cycles
    /// from `t0`, served by processor `src` (`src == pid` when memory
    /// served it). A miss served by another processor's node or cache is
    /// also traced as a [`EventKind::RemoteMiss`] event.
    #[inline]
    pub fn remote_miss(&mut self, pid: usize, line: u64, src: usize, t0: u64, stall: u64) {
        if !self.idle {
            self.record_remote_miss(pid, line, src, t0, stall);
        }
    }

    #[inline(never)]
    fn record_remote_miss(&mut self, pid: usize, line: u64, src: usize, t0: u64, stall: u64) {
        if let Some(tr) = self.trace() {
            if src != pid {
                tr.push(pid, t0, EventKind::RemoteMiss { line, home: src });
            }
            tr.sample_fetch(pid, stall);
            tr.push_edge(DepKind::RemoteMiss { line }, pid, t0, t0 + stall, src, t0);
        }
        if let Some(m) = self.metrics() {
            m.page_fetch(t0, line);
        }
    }

    // ---- scheduler facts ----

    /// Trace `kind` on `pid` at virtual time `ts`.
    #[inline]
    pub(crate) fn event(&mut self, pid: usize, ts: u64, kind: EventKind) {
        if let Some(tr) = self.trace() {
            tr.push(pid, ts, kind);
        }
    }

    /// Record a dependency edge (zero-length edges are skipped by the sink).
    #[inline]
    pub(crate) fn edge(
        &mut self,
        kind: DepKind,
        dst: usize,
        t0: u64,
        t1: u64,
        src: usize,
        ts: u64,
    ) {
        if let Some(tr) = self.trace() {
            tr.push_edge(kind, dst, t0, t1, src, ts);
        }
    }

    /// Record a lock-acquire wait sample for `pid`.
    #[inline]
    pub(crate) fn lock_wait(&mut self, pid: usize, cycles: u64) {
        if let Some(tr) = self.trace() {
            tr.sample_lock(pid, cycles);
        }
    }

    /// Record a barrier-wait sample for `pid`.
    #[inline]
    pub(crate) fn barrier_wait(&mut self, pid: usize, cycles: u64) {
        if let Some(tr) = self.trace() {
            tr.sample_barrier(pid, cycles);
        }
    }

    /// Offer the metrics a cumulative snapshot of `pid`'s statistics
    /// (`stats[pid]`) at its clock (`clocks[pid]`). `forced` samples
    /// (phase/barrier/timing boundaries) are always kept; unforced ticks
    /// only when the clock has rolled into a new interval, so the series
    /// stay O(intervals), not O(operations).
    #[inline]
    pub(crate) fn sample(&mut self, pid: usize, clocks: &[u64], stats: &[ProcStats], forced: bool) {
        if let Some(m) = self.metrics() {
            let s = &stats[pid];
            let snap = ProcSample {
                interval: 0, // overwritten by the sink from `ts`
                ts: clocks[pid],
                compute: s.get(Bucket::Compute),
                data_wait: s.get(Bucket::DataWait),
                lock_wait: s.get(Bucket::LockWait),
                barrier_wait: s.get(Bucket::BarrierWait),
                remote_fetches: s.counters.remote_fetches,
            };
            m.sample_proc(pid, snap, forced);
        }
    }

    /// Record a hand-off of `lock` (ownership moved between processors) at
    /// virtual time `now`.
    #[inline]
    pub(crate) fn lock_handoff(&mut self, now: u64, lock: u32) {
        if let Some(m) = self.metrics() {
            m.lock_handoff(now, lock);
        }
    }

    /// Count `n` occurrences of the named application event on `pid` at
    /// virtual time `now`.
    #[inline]
    pub(crate) fn app_event(&mut self, name: &'static str, pid: usize, now: u64, n: u64) {
        if let Some(m) = self.metrics() {
            m.event(name, pid, now, n);
        }
    }

    /// Open the timed region: clear every sink so it covers exactly the
    /// region from here on.
    pub(crate) fn start_timing(&mut self) {
        self.timing_on = true;
        if let Some(tr) = &mut self.trace {
            tr.reset();
        }
        if let Some(m) = &mut self.metrics {
            m.reset();
        }
        if let Some(sh) = &mut self.sharing {
            sh.clear();
        }
    }

    /// Close the timed region.
    pub(crate) fn stop_timing(&mut self) {
        self.timing_on = false;
    }

    /// Freeze the sinks into their finished reports. `clocks` are the final
    /// per-processor clocks; `allocs` and `label_of` attribute addresses to
    /// allocation labels.
    pub(crate) fn finish(
        self,
        cfg: &crate::RunConfig,
        clocks: &[u64],
        allocs: Vec<AllocSpan>,
        label_of: impl Fn(u64) -> &'static str,
    ) -> (
        Option<SharingProfile>,
        Option<RunTrace>,
        Option<MetricsReport>,
    ) {
        let sharing = self.sharing.map(|sh| {
            let mut prof = sh.profile();
            for p in &mut prof.pages {
                p.label = label_of(p.page_base);
            }
            prof
        });
        let trace = self
            .trace
            .map(|tr| (*tr).into_trace(cfg.label.clone(), cfg.phase_names.clone(), clocks, allocs));
        let metrics = self.metrics.map(|m| (*m).into_report(&label_of));
        (sharing, trace, metrics)
    }
}
