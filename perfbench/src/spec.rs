//! Workload definitions: corpora, op classes and request schedules, all
//! derived from the workload seed. Nothing here touches the engine; the
//! program under test only ever receives the generated texts and
//! requests.

use koko_core::{Order, QueryRequest};
use koko_lang::queries;
use koko_serve::{QueryOpts, WireOrder};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 7919;

/// Articles in the read workloads' corpus (wiki articles plus the cafe
/// tail), as in the `table2_scaleup` block-max section at 1000 articles.
pub const READ_ARTICLES: usize = 1000;
/// One cafe-blog article per this many articles, appended as a tail so
/// the cafe vocabulary is clustered in the last blocks.
pub const CAFE_EVERY: usize = 40;
/// Index shards of a single-node snapshot. Fixed so the layout does not
/// follow the core count of the machine that runs the benchmark.
pub const SHARDS: usize = 2;
/// Server worker threads, fixed for the same reason.
pub const SERVER_THREADS: usize = 2;
/// Result-cache capacity `koko serve` configures by default.
pub const SERVE_CACHE: usize = 1024;

/// Plans one live-ingest run cycles through, each with its own base
/// corpus and batches. A run's figures then average over four corpora:
/// the time of a read follows the size of its reply, and with one
/// corpus that made a run's medians a property of its seed.
pub const INGEST_PLANS: usize = 4;

/// Seeds of the live-ingest plans of run seed `seed`.
pub fn ingest_seeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ 0x1A6E_5EED);
    (0..INGEST_PLANS).map(|_| rng.next_u64()).collect()
}

/// Live-ingest base corpus size.
pub const INGEST_BASE: usize = 400;
/// Documents per `add` request.
pub const INGEST_BATCH: usize = 64;
/// Adds per cycle; each cycle restarts from the base snapshot, so every
/// cycle sees identical shard layouts and cache states.
pub const INGEST_ADDS: usize = 15;
/// A `compact` after every this many adds. Odd, so the add latencies
/// (which grow with the open delta) put their median inside one add
/// position instead of between two.
pub const COMPACT_EVERY: usize = 3;
// The open delta must never outgrow one sealed delta shard.
const _: () = assert!(INGEST_BATCH * COMPACT_EVERY <= koko_core::snapshot::DELTA_SEAL_DOCS);
/// Cached `chocolate` reads after each add's evaluated reads. One, so
/// that the median full read is an evaluation over the whole growing
/// corpus: the time of a cache hit (about 0.1 ms) follows the size of
/// its reply, which varies with the seed by 15% or more.
pub const INGEST_CACHED_READS: usize = 1;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WikiRead,
    ClusterRead,
    LiveIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WikiRead,
        Workload::ClusterRead,
        Workload::LiveIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WikiRead => "wiki-read",
            Workload::ClusterRead => "cluster-read",
            Workload::LiveIngest => "live-ingest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One kind of query request.
#[derive(Debug, Clone)]
pub struct ReadClass {
    pub name: &'static str,
    pub query: &'static str,
    /// Ranked `ScoreDesc` + `limit(10)`; counted in `topk_p50_ms`
    /// rather than in the full-extraction read metrics.
    pub topk: bool,
    /// Requests of this class per schedule round.
    pub weight: usize,
}

impl ReadClass {
    /// Wire options: `None` keeps the legacy reply shape.
    pub fn wire_opts(&self) -> Option<QueryOpts> {
        self.topk.then(|| QueryOpts {
            limit: Some(10),
            order: Some(WireOrder::ScoreDesc),
            ..QueryOpts::default()
        })
    }

    /// The same request for an in-process engine.
    pub fn request(&self, cache: bool) -> QueryRequest {
        let req = QueryRequest::new(self.query).cache(cache);
        if self.topk {
            req.order(Order::ScoreDesc).limit(10)
        } else {
            req
        }
    }
}

fn class(name: &'static str, query: &'static str, topk: bool, weight: usize) -> ReadClass {
    ReadClass {
        name,
        query,
        topk,
        weight,
    }
}

/// The read workloads' op classes. Weights put the pooled full-read
/// median inside `chocolate` and the tail inside `cafe`, and the pooled
/// top-k median inside `dob-top10`, each with a margin on both sides.
pub fn read_classes() -> Vec<ReadClass> {
    vec![
        class("chocolate", queries::CHOCOLATE, false, 12),
        class("title", queries::TITLE, false, 5),
        class("dob", queries::DATE_OF_BIRTH, false, 2),
        class("similar", queries::EXAMPLE_2_2_Q1, false, 2),
        class("cafe", queries::EXAMPLE_2_3, false, 2),
        class("dob-top10", queries::DATE_OF_BIRTH, true, 6),
        class("cafe-top10", queries::EXAMPLE_2_3, true, 2),
    ]
}

/// The live-ingest workload's read classes (cheap reads between writes).
pub fn ingest_classes() -> Vec<ReadClass> {
    vec![
        class("title", queries::TITLE, false, 0),
        class("chocolate", queries::CHOCOLATE, false, 0),
        class("dob-top10", queries::DATE_OF_BIRTH, true, 0),
        // The same request as `chocolate`, sent after it: a cache hit.
        class("chocolate-hit", queries::CHOCOLATE, false, 0),
    ]
}

/// SplitMix64: a tiny deterministic generator for schedules.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Wiki articles followed by a tail of cafe-blog articles.
pub fn mixed_corpus(seed: u64, articles: usize) -> Vec<String> {
    let n_cafe = (articles / CAFE_EVERY).max(1);
    let mut texts = koko_corpus::wiki::generate(articles - n_cafe, seed);
    texts.extend(
        koko_corpus::cafe::generate(
            koko_corpus::cafe::Style::Barista,
            n_cafe,
            seed.wrapping_add(0x5EED),
        )
        .texts,
    );
    texts
}

/// Class indices of one schedule round: every class `weight` times,
/// spread evenly (smooth weighted round-robin). Every round and every
/// seed use this same order. A request's time depends on the requests
/// just before it (what they left in the caches), so an order drawn from
/// the seed made each class's median a property of the seed.
pub fn read_round(classes: &[ReadClass]) -> Vec<usize> {
    let total: usize = classes.iter().map(|c| c.weight).sum();
    let mut credit = vec![0i64; classes.len()];
    (0..total)
        .map(|_| {
            for (c, class) in credit.iter_mut().zip(classes) {
                *c += class.weight as i64;
            }
            let next = (0..classes.len())
                .max_by_key(|&i| (credit[i], std::cmp::Reverse(i)))
                .expect("at least one class");
            credit[next] -= total as i64;
            next
        })
        .collect()
}

/// One step of the live-ingest schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Add batch `i` of [`IngestPlan::batches`].
    Add(usize),
    Compact,
    /// Query class `i` of [`ingest_classes`].
    Read(usize),
}

/// The live-ingest inputs: a base corpus, the batches added to it, and
/// the operation sequence of one cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestPlan {
    pub base: Vec<String>,
    pub batches: Vec<Vec<String>>,
    pub ops: Vec<Op>,
}

/// Build the live-ingest plan. Batches mix new wiki and cafe articles in
/// the base corpus' proportion, drawn from a stream disjoint from it.
pub fn ingest_plan(seed: u64, base: usize, batch: usize, adds: usize) -> IngestPlan {
    let base_texts = mixed_corpus(seed, base);
    let fresh = mixed_corpus(seed.wrapping_add(0x1_0000), batch * adds);
    let n_cafe = (batch * adds / CAFE_EVERY).max(1);
    let (wiki, cafe) = fresh.split_at(fresh.len() - n_cafe);
    let mut rng = SplitMix::new(seed ^ 0xB47C);
    let (mut wi, mut ci) = (0, 0);
    let mut batches = Vec::with_capacity(adds);
    for _ in 0..adds {
        let mut b = Vec::with_capacity(batch);
        while b.len() < batch {
            // Draw cafe articles at their overall share until they run out.
            let take_cafe = ci < cafe.len() && (wi >= wiki.len() || rng.below(CAFE_EVERY) == 0);
            if take_cafe {
                b.push(cafe[ci].clone());
                ci += 1;
            } else {
                b.push(wiki[wi].clone());
                wi += 1;
            }
        }
        batches.push(b);
    }
    let mut ops = Vec::new();
    for i in 0..adds {
        ops.push(Op::Add(i));
        // Evaluated reads first (the add moved the epoch), then hits.
        ops.extend([Op::Read(0), Op::Read(1), Op::Read(2)]);
        ops.extend(std::iter::repeat_n(Op::Read(3), INGEST_CACHED_READS));
        if (i + 1) % COMPACT_EVERY == 0 {
            ops.push(Op::Compact);
        }
    }
    IngestPlan {
        base: base_texts,
        batches,
        ops,
    }
}

/// FNV-1a, for reference digests that must repeat across processes.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Raw text bytes of a corpus.
pub fn text_bytes(texts: &[String]) -> usize {
    texts.iter().map(String::len).sum()
}
