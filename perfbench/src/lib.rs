//! The KOKO serving benchmark: three workloads (`wiki-read`,
//! `cluster-read`, `live-ingest`) driven by one closed-loop client over
//! one connection, every reply checked against an in-process reference.
//! See `README.md` next to this crate for what each workload and metric
//! is for.

pub mod ingest;
pub mod measure;
pub mod read;
pub mod spec;
pub mod stats;
pub mod trace;

use measure::{Layers, Metric};
use spec::Workload;
use std::path::PathBuf;
use trace::Tracer;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Where snapshots and the span file go.
    pub work_dir: PathBuf,
}

/// Per-layer metrics every workload reports in its result line, with
/// units. Layers only one workload exercises (`cluster.*`,
/// `index.delta_build_ms`, `index.compact_ms`) are printed above it.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("serve.overhead_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.reply_bytes", "B"),
    ("lang.compile_ms", "ms"),
    ("index.dpli_ms", "ms"),
    ("index.candidates", "count"),
    ("index.gallop_probes", "count"),
    ("storage.load_article_ms", "ms"),
    ("storage.docs_loaded", "count"),
    ("storage.open_ms", "ms"),
    ("storage.first_touch_ms", "ms"),
    ("storage.save_ms", "ms"),
    ("storage.file_bytes", "B"),
    ("core.run_ms", "ms"),
    ("core.profile.dpli_ms", "ms"),
    ("core.profile.load_article_ms", "ms"),
    ("core.profile.gsp_ms", "ms"),
    ("core.profile.extract_ms", "ms"),
    ("core.profile.satisfying_ms", "ms"),
    ("core.unaccounted_ms", "ms"),
    ("core.rows_per_candidate", "ratio"),
    ("core.raw_tuples", "count"),
    ("core.docs_skipped", "count"),
    ("core.bound_skipped_docs", "count"),
    ("core.block_bound_skipped_docs", "count"),
    ("core.topk_skip_ratio", "ratio"),
    ("nlp.parse_ms", "ms"),
    ("cache.result_hit_ratio", "ratio"),
    ("trace.untraced_read_qps", "1/s"),
    ("trace.traced_read_qps", "1/s"),
    ("trace.other_share", "ratio"),
];

/// What a run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub layers: Layers,
    pub tracer: Tracer,
    /// Lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            end_to_end: Vec::new(),
            layers: Layers::default(),
            tracer: Tracer::new(false),
            notes: Vec::new(),
        }
    }
}

/// Run one workload.
pub fn run(args: &RunArgs) -> Outcome {
    match args.workload {
        Workload::WikiRead | Workload::ClusterRead => read::run(args.workload, args),
        Workload::LiveIngest => ingest::run(args),
    }
}
