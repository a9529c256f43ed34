//! Per-page sharing profiles: the paper's diagnostic for *why* restructuring
//! helps on SVM.
//!
//! Page-grained coherence turns word-disjoint writes into false sharing; the
//! paper attributes diff/fetch/invalidation traffic to data structures before
//! and after each P/A, DS and Alg transformation to show which structure each
//! restructuring fixed. [`SharingProfile`] is that attribution: per protocol
//! page, the traffic counters, the writer/reader sets, and a true-vs-false
//! sharing classification computed from word-granularity write footprints —
//! two nodes diffing *disjoint* word sets of the same page is pure false
//! sharing (the race detector proves it is not a race; here it is surfaced
//! as cost, not error).
//!
//! When a run is configured with
//! [`RunConfig::with_sharing_profile`](crate::RunConfig::with_sharing_profile),
//! the run's [`crate::probe::Probe`] feeds the page facts of the page-based
//! platforms (`svm-hlrc`, `lrc-tmk`) — fetches, diffs with their word
//! footprints, invalidations — into a sharing tracker, and the finished
//! profile is attached to [`RunStats::sharing`](crate::RunStats). The
//! profiler never charges cycles: statistics are bit-identical with it on or
//! off.

use crate::util::FxMap;

/// How a page was shared during the profiled region, judged from the
/// word-granularity write footprints of the diffs it generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SharingClass {
    /// No node ever diffed the page: read-only (or home-write-only) traffic.
    ReadShared,
    /// Exactly one node diffed the page: migratory/private traffic; any cost
    /// is placement, not sharing.
    SingleWriter,
    /// Two or more nodes diffed **disjoint** word sets: all coherence traffic
    /// on this page is an artifact of page granularity.
    FalseSharing,
    /// Two or more nodes diffed at least one common word: the processors
    /// genuinely communicate through this page.
    TrueSharing,
}

impl SharingClass {
    /// Short label used by reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            SharingClass::ReadShared => "read-shared",
            SharingClass::SingleWriter => "single-writer",
            SharingClass::FalseSharing => "false-sharing",
            SharingClass::TrueSharing => "true-sharing",
        }
    }
}

/// Sharing record for one protocol page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSharing {
    /// First byte address of the page.
    pub page_base: u64,
    /// Label of the allocation containing the page (see
    /// `Proc::alloc_shared_labeled`); empty if unlabeled.
    pub label: &'static str,
    /// Remote page fetches (faults served over the wire).
    pub fetches: u64,
    /// Total 4-byte words carried by diffs of this page.
    pub diff_words: u64,
    /// Total contiguous runs across those diffs (scattered diffs cost more
    /// wire per word).
    pub diff_runs: u64,
    /// Bytes this page moved over the interconnect (pages + diffs + control).
    pub wire_bytes: u64,
    /// Write-notice invalidations applied to copies of this page.
    pub invalidations: u64,
    /// Nodes that diffed the page, ascending.
    pub writers: Vec<u32>,
    /// Nodes that fetched the page, ascending.
    pub readers: Vec<u32>,
    /// True/false sharing classification.
    pub class: SharingClass,
}

/// Per-allocation-label aggregate of [`PageSharing`] records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LabelSharing {
    /// The allocation label ("" for unlabeled allocations).
    pub label: &'static str,
    /// Pages of this label that saw protocol activity.
    pub pages: u64,
    /// Pages classified [`SharingClass::FalseSharing`].
    pub false_pages: u64,
    /// Pages classified [`SharingClass::TrueSharing`].
    pub true_pages: u64,
    /// Sum of fetches over the label's pages.
    pub fetches: u64,
    /// Sum of diff words over the label's pages.
    pub diff_words: u64,
    /// Diff words on pages classified as pure false sharing.
    pub false_diff_words: u64,
    /// Diff words on pages classified as true sharing.
    pub true_diff_words: u64,
    /// Sum of wire bytes over the label's pages.
    pub wire_bytes: u64,
    /// Sum of invalidations over the label's pages.
    pub invalidations: u64,
}

impl LabelSharing {
    /// Fraction of this label's diff traffic that is pure false sharing
    /// (0.0 when the label produced no diffs).
    pub fn false_share(&self) -> f64 {
        if self.diff_words == 0 {
            0.0
        } else {
            self.false_diff_words as f64 / self.diff_words as f64
        }
    }
}

/// The complete sharing profile of one run on a page-based platform.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharingProfile {
    /// Protocol page size in bytes.
    pub page_bytes: u64,
    /// One record per page with protocol activity, ascending by address.
    pub pages: Vec<PageSharing>,
}

impl SharingProfile {
    /// Aggregate the profile by allocation label, hottest (most diff words,
    /// then most wire bytes) first.
    pub fn labels(&self) -> Vec<LabelSharing> {
        let mut agg: Vec<LabelSharing> = Vec::new();
        for p in &self.pages {
            let e = match agg.iter_mut().find(|l| l.label == p.label) {
                Some(e) => e,
                None => {
                    agg.push(LabelSharing {
                        label: p.label,
                        ..LabelSharing::default()
                    });
                    agg.last_mut().unwrap()
                }
            };
            e.pages += 1;
            e.fetches += p.fetches;
            e.diff_words += p.diff_words;
            e.wire_bytes += p.wire_bytes;
            e.invalidations += p.invalidations;
            match p.class {
                SharingClass::FalseSharing => {
                    e.false_pages += 1;
                    e.false_diff_words += p.diff_words;
                }
                SharingClass::TrueSharing => {
                    e.true_pages += 1;
                    e.true_diff_words += p.diff_words;
                }
                _ => {}
            }
        }
        agg.sort_by(|a, b| {
            (b.diff_words, b.wire_bytes, a.label).cmp(&(a.diff_words, a.wire_bytes, b.label))
        });
        agg
    }

    /// The aggregate for one label, if any of its pages saw activity.
    pub fn label(&self, label: &str) -> Option<LabelSharing> {
        self.labels().into_iter().find(|l| l.label == label)
    }

    /// Total diff words across all pages.
    pub fn total_diff_words(&self) -> u64 {
        self.pages.iter().map(|p| p.diff_words).sum()
    }

    /// Human-readable report: hottest pages by wire traffic, then the
    /// per-label true/false-sharing table.
    pub fn report(&self) -> String {
        let mut s = format!(
            "sharing profile: {} active pages of {} bytes\n",
            self.pages.len(),
            self.page_bytes
        );
        let mut hot: Vec<&PageSharing> = self.pages.iter().collect();
        hot.sort_by_key(|p| (std::cmp::Reverse(p.wire_bytes), p.page_base));
        s.push_str(
            "hottest pages by wire bytes:\n      page_base label                 class  wire_B  fetches  diff_wd  invals  writers\n",
        );
        for p in hot.iter().take(16) {
            s.push_str(&format!(
                "{:#014x} {:<16} {:>13} {:>7} {:>8} {:>8} {:>7}  {:?}\n",
                p.page_base,
                if p.label.is_empty() { "-" } else { p.label },
                p.class.label(),
                p.wire_bytes,
                p.fetches,
                p.diff_words,
                p.invalidations,
                p.writers,
            ));
        }
        s.push_str(
            "by allocation label:\nlabel                 pages  false  true  fetches  diff_wd  false_wd  false%   wire_B\n",
        );
        for l in self.labels() {
            s.push_str(&format!(
                "{:<20} {:>6} {:>6} {:>5} {:>8} {:>8} {:>9} {:>6.1}% {:>8}\n",
                if l.label.is_empty() { "-" } else { l.label },
                l.pages,
                l.false_pages,
                l.true_pages,
                l.fetches,
                l.diff_words,
                l.false_diff_words,
                100.0 * l.false_share(),
                l.wire_bytes,
            ));
        }
        s
    }

    /// Machine-readable JSON (hand-rolled; the workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"page_bytes\": {},\n", self.page_bytes));
        s.push_str("  \"pages\": [\n");
        for (i, p) in self.pages.iter().enumerate() {
            let writers: Vec<String> = p.writers.iter().map(|w| w.to_string()).collect();
            let readers: Vec<String> = p.readers.iter().map(|r| r.to_string()).collect();
            s.push_str(&format!(
                "    {{\"page_base\": {}, \"label\": \"{}\", \"class\": \"{}\", \"fetches\": {}, \"diff_words\": {}, \"diff_runs\": {}, \"wire_bytes\": {}, \"invalidations\": {}, \"writers\": [{}], \"readers\": [{}]}}{}\n",
                p.page_base,
                p.label,
                p.class.label(),
                p.fetches,
                p.diff_words,
                p.diff_runs,
                p.wire_bytes,
                p.invalidations,
                writers.join(", "),
                readers.join(", "),
                if i + 1 < self.pages.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n  \"labels\": [\n");
        let labels = self.labels();
        for (i, l) in labels.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"label\": \"{}\", \"pages\": {}, \"false_pages\": {}, \"true_pages\": {}, \"fetches\": {}, \"diff_words\": {}, \"false_diff_words\": {}, \"true_diff_words\": {}, \"false_share\": {:.4}, \"wire_bytes\": {}, \"invalidations\": {}}}{}\n",
                l.label,
                l.pages,
                l.false_pages,
                l.true_pages,
                l.fetches,
                l.diff_words,
                l.false_diff_words,
                l.true_diff_words,
                l.false_share(),
                l.wire_bytes,
                l.invalidations,
                if i + 1 < labels.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Per-word diff-ownership sentinel: written by more than one node.
const MULTI: u16 = u16::MAX;

/// Activity record for one protocol page.
#[derive(Clone, Debug, Default)]
struct PageTrack {
    fetches: u64,
    diff_words: u64,
    diff_runs: u64,
    wire_bytes: u64,
    invalidations: u64,
    /// Nodes that diffed the page, ascending.
    writers: Vec<u32>,
    /// Nodes that fetched the page, ascending.
    readers: Vec<u32>,
    /// Per word: diffing node + 1 (0 = never diffed, [`MULTI`] = several);
    /// allocated at the page's first diff.
    owner: Vec<u16>,
    /// Two nodes diffed the same word: genuine communication.
    overlap: bool,
}

fn insert_sorted(v: &mut Vec<u32>, x: u32) {
    if let Err(i) = v.binary_search(&x) {
        v.insert(i, x);
    }
}

impl PageTrack {
    fn classify(&self) -> SharingClass {
        match self.writers.len() {
            0 => SharingClass::ReadShared,
            1 => SharingClass::SingleWriter,
            _ if self.overlap => SharingClass::TrueSharing,
            _ => SharingClass::FalseSharing,
        }
    }
}

/// Accumulates a [`SharingProfile`] from page facts, keyed by page base
/// address. Node ids are whatever the platform calls a protocol node.
#[derive(Clone, Debug)]
pub(crate) struct SharingTracker {
    page_bytes: u64,
    pages: FxMap<u64, PageTrack>,
}

impl SharingTracker {
    /// A tracker for protocol pages of `page_bytes` bytes (0 on platforms
    /// without pages, which report no page facts).
    pub(crate) fn new(page_bytes: u64) -> Self {
        Self {
            page_bytes,
            pages: FxMap::default(),
        }
    }

    /// Forget everything recorded so far (the start of the timed region).
    pub(crate) fn clear(&mut self) {
        self.pages.clear();
    }

    /// Node `reader` fetched `page`, moving `wire` bytes.
    pub(crate) fn fetch(&mut self, page: u64, reader: usize, wire: u64) {
        let t = self.pages.entry(page).or_default();
        t.fetches += 1;
        t.wire_bytes += wire;
        insert_sorted(&mut t.readers, reader as u32);
    }

    /// Node `writer` diffed `page`: `runs` are the diff's `(first word,
    /// word count)` runs, `wire` the bytes it moved (0 for protocols that
    /// archive diffs locally).
    pub(crate) fn diff(&mut self, page: u64, writer: usize, runs: &[(u32, u32)], wire: u64) {
        let words = (self.page_bytes / 4) as usize;
        let t = self.pages.entry(page).or_default();
        t.diff_words += runs.iter().map(|&(_, n)| n as u64).sum::<u64>();
        t.diff_runs += runs.len() as u64;
        t.wire_bytes += wire;
        insert_sorted(&mut t.writers, writer as u32);
        if t.owner.is_empty() {
            t.owner = vec![0; words];
        }
        let me = writer as u16 + 1;
        for &(first, n) in runs {
            for o in &mut t.owner[first as usize..(first + n) as usize] {
                if *o == 0 {
                    *o = me;
                } else if *o != me {
                    *o = MULTI;
                    t.overlap = true;
                }
            }
        }
    }

    /// A copy of `page` was invalidated by a write notice.
    pub(crate) fn inval(&mut self, page: u64) {
        self.pages.entry(page).or_default().invalidations += 1;
    }

    /// The profile, ascending by page address. Allocation labels are left
    /// empty for the caller to attribute.
    pub(crate) fn profile(&self) -> SharingProfile {
        let mut pages: Vec<PageSharing> = self
            .pages
            .iter()
            .map(|(&page_base, t)| PageSharing {
                page_base,
                label: "",
                fetches: t.fetches,
                diff_words: t.diff_words,
                diff_runs: t.diff_runs,
                wire_bytes: t.wire_bytes,
                invalidations: t.invalidations,
                writers: t.writers.clone(),
                readers: t.readers.clone(),
                class: t.classify(),
            })
            .collect();
        pages.sort_by_key(|p| p.page_base);
        SharingProfile {
            page_bytes: self.page_bytes,
            pages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(base: u64, label: &'static str, class: SharingClass, diff_words: u64) -> PageSharing {
        PageSharing {
            page_base: base,
            label,
            fetches: 2,
            diff_words,
            diff_runs: 1,
            wire_bytes: diff_words * 4 + 8,
            invalidations: 1,
            writers: vec![0, 1],
            readers: vec![2],
            class,
        }
    }

    #[test]
    fn label_aggregation_and_false_share() {
        let prof = SharingProfile {
            page_bytes: 4096,
            pages: vec![
                page(0x1000, "grid", SharingClass::FalseSharing, 30),
                page(0x2000, "grid", SharingClass::TrueSharing, 10),
                page(0x3000, "tasks", SharingClass::SingleWriter, 5),
            ],
        };
        let grid = prof.label("grid").unwrap();
        assert_eq!(grid.pages, 2);
        assert_eq!(grid.false_pages, 1);
        assert_eq!(grid.diff_words, 40);
        assert_eq!(grid.false_diff_words, 30);
        assert!((grid.false_share() - 0.75).abs() < 1e-12);
        let tasks = prof.label("tasks").unwrap();
        assert_eq!(tasks.false_diff_words, 0);
        assert_eq!(tasks.false_share(), 0.0);
        // Hottest label first.
        assert_eq!(prof.labels()[0].label, "grid");
    }

    #[test]
    fn report_and_json_render() {
        let prof = SharingProfile {
            page_bytes: 4096,
            pages: vec![page(0x1000, "grid", SharingClass::FalseSharing, 8)],
        };
        let rep = prof.report();
        assert!(rep.contains("false-sharing"));
        assert!(rep.contains("grid"));
        let json = prof.to_json();
        assert!(json.contains("\"label\": \"grid\""));
        assert!(json.contains("\"false_share\": 1.0000"));
    }

    /// Word runs of the given word indices (ascending).
    fn runs_of(words: &[u32]) -> Vec<(u32, u32)> {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &w in words {
            match runs.last_mut() {
                Some((s, n)) if *s + *n == w => *n += 1,
                _ => runs.push((w, 1)),
            }
        }
        runs
    }

    fn class_of(t: &SharingTracker, page: u64) -> SharingClass {
        t.pages[&page].classify()
    }

    #[test]
    fn disjoint_writers_classify_as_false_sharing() {
        let mut t = SharingTracker::new(64);
        t.diff(0, 0, &runs_of(&[0, 1]), 20);
        t.diff(0, 1, &runs_of(&[8]), 12);
        assert_eq!(class_of(&t, 0), SharingClass::FalseSharing);
        assert_eq!(t.pages[&0].diff_words, 3);
        assert_eq!(t.pages[&0].diff_runs, 2);
    }

    #[test]
    fn overlapping_writers_classify_as_true_sharing() {
        let mut t = SharingTracker::new(64);
        t.diff(0, 0, &runs_of(&[4]), 12);
        t.diff(0, 2, &runs_of(&[4]), 12);
        assert_eq!(class_of(&t, 0), SharingClass::TrueSharing);
    }

    #[test]
    fn single_writer_and_read_only_classes() {
        let mut t = SharingTracker::new(64);
        t.diff(0, 3, &runs_of(&[0]), 12);
        t.diff(0, 3, &runs_of(&[5]), 12);
        assert_eq!(class_of(&t, 0), SharingClass::SingleWriter);
        t.fetch(64, 1, 4096);
        t.fetch(64, 2, 4096);
        assert_eq!(class_of(&t, 64), SharingClass::ReadShared);
    }

    #[test]
    fn profile_sorts_pages_by_address() {
        let mut t = SharingTracker::new(4096);
        for page in [5 << 12, 2 << 12, 9 << 12] {
            t.inval(page);
        }
        let prof = t.profile();
        let bases: Vec<u64> = prof.pages.iter().map(|p| p.page_base).collect();
        assert_eq!(bases, vec![2 << 12, 5 << 12, 9 << 12]);
        assert_eq!(prof.page_bytes, 4096);
    }
}
