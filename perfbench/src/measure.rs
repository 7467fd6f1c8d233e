//! What one run measures: per-operation round trips (end to end) and,
//! on a traced run, the benchmark's own in-process calls into each
//! layer. Also the in-process layer probe shared by every workload.

use crate::spec::ReadClass;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use koko_core::binder::CompiledQuery;
use koko_core::{dpli, Koko, QueryOutput};
use koko_lang::{normalize, parse_query};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Rounds that lost more than this share of the machine's CPU time to
/// other guests are kept only when too few others exist.
pub const CLEAN_STEAL: f64 = 0.05;

/// The time, in milliseconds, the [`Probe`] takes on the machine the
/// bounds were set on (a 2-vCPU Xeon virtual machine at 2.0 GHz) in its
/// fast state. Every reported time is scaled to it.
pub const PROBE_REF_MS: f64 = 0.27;

/// A fixed piece of work that does not touch the program under test:
/// sort 8 Ki pseudo-random keys, hash the lower-cased words of a fixed
/// 3000-word text into a small open-addressing table, and format 600
/// JSON-like rows into a reused buffer. It takes 0.25–0.45 ms on that
/// machine. It allocates nothing and reads its data once, untimed,
/// before each timed pass, so the heap and the caches the measured
/// operation left behind do not change its time.
/// Timed just before and just after every measured operation, it tracks
/// how fast the machine runs at that moment. On a shared host a core's
/// speed changes from second to second by up to 1.6x, with no CPU steal
/// showing (another guest on the sibling hyperthread, clock changes);
/// the probe and KOKO's operations slow down together, by 1.45–1.6x
/// each.
pub struct Probe {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    text: Vec<u8>,
    table: Vec<(u64, u32)>,
    rows: String,
}

impl Default for Probe {
    fn default() -> Probe {
        let mut rng = crate::spec::SplitMix::new(0x9E37_79B9);
        let keys: Vec<u64> = (0..1 << 13).map(|_| rng.next_u64()).collect();
        const SYLLABLES: [&str; 12] = [
            "ka", "Lo", "mi", "re", "Su", "ta", "ne", "vo", "Pi", "da", "gu", "the",
        ];
        let words: Vec<String> = (0..3000)
            .map(|_| {
                (0..1 + rng.below(2))
                    .map(|_| SYLLABLES[rng.below(SYLLABLES.len())])
                    .collect()
            })
            .collect();
        Probe {
            sorted: keys.clone(),
            keys,
            text: words.join(" ").into_bytes(),
            table: vec![(0, 0); 512],
            rows: String::with_capacity(1 << 16),
        }
    }
}

impl std::fmt::Debug for Probe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Probe")
    }
}

impl Probe {
    /// Milliseconds one pass takes now.
    pub fn run(&mut self) -> f64 {
        let warm = self.keys.iter().fold(0, |a, &k| a ^ k)
            ^ self.text.iter().map(|&b| u64::from(b)).sum::<u64>();
        black_box(warm);
        let t = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        black_box(&self.sorted);
        self.table.fill((0, 0));
        let mask = self.table.len() - 1;
        for word in self.text.split(|&b| b == b' ') {
            let h = word.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b.to_ascii_lowercase())).wrapping_mul(0x0100_0000_01B3)
            });
            let mut slot = h as usize & mask;
            while self.table[slot].0 != h && self.table[slot].1 != 0 {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = (h, self.table[slot].1 + 1);
        }
        black_box(&self.table);
        self.rows.clear();
        for i in 0..600u32 {
            let _ = write!(
                self.rows,
                "{{\"doc\":{i},\"sid\":{},\"score\":{:?}}},",
                i * 7919,
                f64::from(i) * 0.37
            );
        }
        black_box(&self.rows);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// One round of the timed phase. Every round repeats the same
/// operations, so rounds are interchangeable samples of the workload.
/// Every time in it is scaled to the reference speed (see
/// [`RoundTrips::timed`]).
#[derive(Debug, Default)]
pub struct Round {
    /// Share of the machine's CPU time stolen by the hypervisor (other
    /// guests) while the round ran.
    pub steal: f64,
    /// Every [`Probe`] time of the round.
    pub probes: Samples,
    /// Which input of the run the round used (the live-ingest plan);
    /// rounds are kept in equal numbers from each.
    pub group: usize,
    /// Full-extraction queries (every class without `limit`).
    pub full: Samples,
    /// The same, unscaled.
    pub raw_full: Samples,
    /// Ranked `limit(10)` queries.
    pub topk: Samples,
    pub adds: Samples,
    pub compacts: Samples,
    pub docs_added: usize,
    pub by_class: BTreeMap<&'static str, Samples>,
    /// The round's set-ups.
    pub setup: Samples,
    /// Documents made queryable per second: each set-up's build on the
    /// read workloads, the round's adds on live-ingest.
    pub ingest_docs_per_s: Samples,
    /// The round's cold opens + first queries.
    pub cold: Samples,
}

impl Round {
    fn read_qps(&self) -> f64 {
        let ms = self.full.sum() + self.topk.sum();
        (self.full.len() + self.topk.len()) as f64 / (ms / 1e3)
    }
}

/// The rounds of one phase, plus the correctness tally of every
/// operation the run sent.
#[derive(Debug, Default)]
pub struct RoundTrips {
    pub rounds: Vec<Round>,
    current: Round,
    started: (u64, u64),
    probe: Probe,
    pub attempted: u64,
    pub failed: u64,
}

impl RoundTrips {
    pub fn begin_round(&mut self) {
        self.current = Round::default();
        self.started = cpu_jiffies();
    }

    pub fn current(&mut self) -> &mut Round {
        &mut self.current
    }

    pub fn end_round(&mut self) {
        let (steal, total) = cpu_jiffies();
        let (steal0, total0) = self.started;
        let mut round = std::mem::take(&mut self.current);
        round.steal = (steal - steal0) as f64 / (total - total0).max(1) as f64;
        if round.docs_added > 0 {
            let rate = round.docs_added as f64 / (round.adds.sum() / 1e3);
            round.ingest_docs_per_s.push_ms(rate);
        }
        self.rounds.push(round);
    }

    /// Time `op` with the [`Probe`] run just before and just after it.
    /// Returns what `op` returned, its time, and the factor that scales
    /// that time to the reference speed: [`PROBE_REF_MS`] ÷ the mean of
    /// the two probe times. A program change moves the time and leaves
    /// the probe alone, so it moves the scaled time by the same share.
    pub fn timed<T>(&mut self, op: impl FnOnce() -> T) -> (T, Duration, f64) {
        let before = self.probe.run();
        let t = Instant::now();
        let out = op();
        let took = t.elapsed();
        let probe = (before + self.probe.run()) / 2.0;
        self.current.probes.push_ms(probe);
        (out, took, PROBE_REF_MS / probe)
    }

    /// Record a read that took `rt`, scaled by `scale`.
    pub fn record_read(&mut self, class: &ReadClass, rt: Duration, scale: f64) {
        let r = &mut self.current;
        let ms = rt.as_secs_f64() * 1e3;
        if class.topk {
            r.topk.push_ms(ms * scale);
        } else {
            r.full.push_ms(ms * scale);
            r.raw_full.push_ms(ms);
        }
        r.by_class
            .entry(class.name)
            .or_default()
            .push_ms(ms * scale);
    }

    /// Record a write that took `rt`, scaled by `scale`; `docs` is the
    /// number of documents it added.
    pub fn record_write(&mut self, class: &'static str, rt: Duration, scale: f64, docs: usize) {
        let r = &mut self.current;
        let ms = rt.as_secs_f64() * 1e3 * scale;
        if class == "add" {
            r.docs_added += docs;
            r.adds.push_ms(ms);
        } else {
            r.compacts.push_ms(ms);
        }
        r.by_class.entry(class).or_default().push_ms(ms);
    }

    /// Count one operation; `ok` is false when the reply was refused or
    /// differed from the reference.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("mismatch: {}", what());
            }
        }
    }

    /// Whether a phase that keeps `keep` rounds should run another.
    pub fn wants_more(&self, elapsed: f64, seconds: f64, keep: usize) -> bool {
        elapsed < seconds || self.rounds.len() < keep
    }

    /// Pool `keep` rounds, the same number from each group: those with
    /// the fastest median probe among the rounds with little steal (or
    /// among all rounds of the group, when too few have little steal).
    /// Keeping a fixed number makes the sample counts, and so the tail
    /// percentile the rule picks, the same in every run.
    pub fn summary(&self, keep: usize) -> Summary {
        let groups = self.rounds.iter().map(|r| r.group + 1).max().unwrap_or(1);
        let probe: Vec<f64> = self.rounds.iter().map(|r| r.probes.median()).collect();
        let mut kept = Vec::new();
        for g in 0..groups {
            let members: Vec<usize> = (0..self.rounds.len())
                .filter(|&i| self.rounds[i].group == g)
                .collect();
            let mut order: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&i| self.rounds[i].steal <= CLEAN_STEAL)
                .collect();
            if order.len() < keep / groups {
                order = members;
            }
            order.sort_by(|&a, &b| probe[a].total_cmp(&probe[b]));
            kept.extend(order.into_iter().take(keep / groups));
        }
        kept.sort_unstable();
        let mut s = Summary {
            rounds: self.rounds.len(),
            ..Summary::default()
        };
        for &i in &kept {
            let r = &self.rounds[i];
            s.kept += 1;
            s.max_steal = s.max_steal.max(r.steal);
            s.probe.extend(&r.probes);
            s.full.extend(&r.full);
            s.raw_full.extend(&r.raw_full);
            s.topk.extend(&r.topk);
            s.adds.extend(&r.adds);
            s.compacts.extend(&r.compacts);
            for (k, v) in &r.by_class {
                s.by_class.entry(k).or_default().extend(v);
            }
            if r.full.len() + r.topk.len() > 0 {
                s.qps.push_ms(r.read_qps());
            }
            s.ingest.extend(&r.ingest_docs_per_s);
            s.setup.extend(&r.setup);
            s.cold.extend(&r.cold);
        }
        s
    }
}

/// The kept rounds, pooled.
#[derive(Debug, Default)]
pub struct Summary {
    pub rounds: usize,
    pub kept: usize,
    /// Probe times of the kept rounds.
    pub probe: Samples,
    /// Full-extraction queries, unscaled.
    pub raw_full: Samples,
    /// Highest steal share among the kept rounds.
    pub max_steal: f64,
    pub full: Samples,
    pub topk: Samples,
    pub adds: Samples,
    pub compacts: Samples,
    pub by_class: BTreeMap<&'static str, Samples>,
    /// Per-round rates and set-up figures, one sample per kept round.
    pub qps: Samples,
    pub ingest: Samples,
    pub setup: Samples,
    pub cold: Samples,
}

/// Per-call numbers of the traced run, one entry per call.
#[derive(Debug, Default)]
pub struct Layers {
    pub calls: BTreeMap<&'static str, Samples>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.calls.entry(name).or_default().push_ms(v);
    }

    pub fn add_time(&mut self, name: &'static str, d: Duration) {
        self.add(name, d.as_secs_f64() * 1e3);
    }

    /// Mean per call; `0` for a layer the run never called.
    pub fn mean(&self, name: &str) -> f64 {
        self.calls
            .get(name)
            .filter(|s| !s.is_empty())
            .map_or(0.0, Samples::mean)
    }
}

/// The in-process layer calls for one read request, timed from outside
/// each module's public functions. `engine` must evaluate the same data
/// the server does, sequentially (as a server worker runs a query).
/// Returns the engine's own output of the request and the time
/// `Koko::run` took.
pub fn probe_read(
    tr: &mut Tracer,
    parent: SpanId,
    request: u64,
    engine: &Koko,
    class: &ReadClass,
    layers: &mut Layers,
) -> (QueryOutput, Duration) {
    let (cq, d) = tr.time("lang.compile", parent, request, || {
        let parsed = parse_query(class.query).expect("benchmark query parses");
        let norm = normalize(&parsed).expect("benchmark query normalizes");
        CompiledQuery::compile(norm).expect("benchmark query compiles")
    });
    layers.add_time("lang.compile_ms", d);

    let snap = engine.snapshot();
    let shards = snap.shards();
    let ((cands, probes), d) = tr.time("index.dpli", parent, request, || {
        let mut cands = Vec::new();
        let mut probes = 0;
        for (slot, shard) in shards.iter().enumerate() {
            let mut stream = dpli::stream(&cq, shard.index());
            while let Some(local) = stream.next_sid() {
                cands.push((slot, local));
            }
            probes += stream.probes();
        }
        (cands, probes)
    });
    layers.add_time("index.dpli_ms", d);
    layers.add("index.candidates", cands.len() as f64);
    layers.add("index.gallop_probes", probes as f64);

    let mut docs: Vec<u32> = cands
        .iter()
        .map(|&(slot, local)| {
            let shard = &shards[slot];
            shard.doc_of_sid(shard.to_global_sid(local))
        })
        .collect();
    docs.dedup();
    let (_, d) = tr.time("storage.load_article", parent, request, || {
        for &doc in &docs {
            black_box(snap.load_document(doc).expect("stored document decodes"));
        }
    });
    layers.add_time("storage.load_article_ms", d);
    layers.add("storage.docs_loaded", docs.len() as f64);

    let (out, run) = tr.time("core.run", parent, request, || {
        class
            .request(false)
            .run(engine)
            .expect("benchmark query runs")
    });
    layers.add_time("core.run_ms", run);
    let p = &out.profile;
    layers.add_time("core.profile.dpli_ms", p.dpli);
    layers.add_time("core.profile.load_article_ms", p.load_article);
    layers.add_time("core.profile.gsp_ms", p.gsp);
    layers.add_time("core.profile.extract_ms", p.extract);
    layers.add_time("core.profile.satisfying_ms", p.satisfying);
    layers.add_time("core.profile.normalize_ms", p.normalize);
    layers.add_time("core.unaccounted_ms", run.saturating_sub(p.total()));
    layers.add("core.raw_tuples", p.raw_tuples as f64);
    if p.candidate_sentences > 0 {
        layers.add(
            "core.rows_per_candidate",
            out.rows.len() as f64 / p.candidate_sentences as f64,
        );
    }
    if class.topk {
        layers.add("core.docs_skipped", p.docs_skipped as f64);
        layers.add("core.bound_skipped_docs", p.bound_skipped_docs as f64);
        layers.add(
            "core.block_bound_skipped_docs",
            p.block_bound_skipped_docs as f64,
        );
        if !docs.is_empty() {
            layers.add(
                "core.topk_skip_ratio",
                p.docs_skipped as f64 / docs.len() as f64,
            );
        }
    }

    let (line, d) = tr.time("serve.serialize", parent, request, || {
        if class.topk {
            koko_serve::opts_response(0, &out)
        } else {
            koko_serve::ok_response(0, &out)
        }
    });
    layers.add_time("serve.serialize_ms", d);
    layers.add("serve.reply_bytes", line.len() as f64);
    (out, run)
}

/// Cumulative CPU jiffies of the machine: `(steal, total)`, from the
/// first line of `/proc/stat`; zeros where it cannot be read.
pub fn cpu_jiffies() -> (u64, u64) {
    let line = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default();
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// A number out of a flat JSON reply line, e.g. `"documents":1040`.
pub fn reply_number(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The reply line standing in for a request the connection failed.
pub fn failed_reply(e: std::io::Error) -> String {
    format!("{{\"ok\":false,\"error\":\"{e}\"}}")
}

/// Whether a query reply is `ok` and carries exactly the reference rows.
pub fn rows_match(reply: &str, expected_rows: &str) -> bool {
    reply.contains("\"ok\":true")
        && koko_serve::protocol::response_rows(reply) == Some(expected_rows)
}
