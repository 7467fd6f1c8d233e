//! The read workloads: `wiki-read` (one `koko-serve` over an mmap-opened
//! snapshot) and `cluster-read` (a coordinator over two workers holding
//! contiguous halves of the same corpus). One client, closed loop, every
//! request `cache:false` so each one evaluates.

use crate::measure::{self, Layers, Metric, RoundTrips, Summary};
use crate::spec::{self, ReadClass, Workload};
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, RunArgs};
use koko_cluster::{Coordinator, CoordinatorConfig, Mode, ShardMap, WorkerEntry};
use koko_core::{EngineOpts, Koko, QueryRequest};
use koko_serve::{Client, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Options of an engine built from text: fixed shard count, the result
/// cache `koko serve` configures by default.
pub fn build_opts(num_shards: usize) -> EngineOpts {
    EngineOpts {
        num_shards,
        result_cache: spec::SERVE_CACHE,
        ..EngineOpts::default()
    }
}

/// A sequential clone, as a server worker evaluates: shard fan-out off.
pub fn sequential(koko: &Koko) -> Koko {
    let mut k = koko.clone();
    k.opts.parallel = false;
    k
}

pub fn bind(koko: Koko, writable: bool) -> Server {
    let config = ServerConfig {
        threads: spec::SERVER_THREADS,
        writable,
        ..ServerConfig::default()
    };
    Server::bind_config(koko, "127.0.0.1:0", config).expect("bind server")
}

/// One serving node of the workload: its snapshot file, the sequential
/// clone of the engine it serves, and the base of its document and
/// sentence ranges in the whole corpus.
struct Node {
    server: Server,
    engine: Koko,
    doc_base: u32,
    sid_base: u32,
    file: PathBuf,
}

/// Everything one set-up produced.
struct Served {
    texts: Vec<String>,
    nodes: Vec<Node>,
    coordinator: Option<Coordinator>,
    addr: String,
    file_bytes: u64,
    build: Duration,
    total: Duration,
}

impl Served {
    fn shutdown(self) {
        if let Some(c) = self.coordinator {
            c.shutdown();
        }
        for n in self.nodes {
            n.server.shutdown();
            let _ = std::fs::remove_file(&n.file);
        }
    }
}

/// Generate, build, save, open and bind, up to the first request.
fn set_up(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tag: &str,
    tr: &mut Tracer,
    parent: SpanId,
    layers: &mut Layers,
) -> Served {
    let t0 = Instant::now();
    let texts = spec::mixed_corpus(seed, spec::READ_ARTICLES);
    // wiki-read: one node with both shards. cluster-read: two nodes of
    // one shard each, contiguous halves.
    let nodes_n = if workload == Workload::ClusterRead {
        2
    } else {
        1
    };
    let n = texts.len();
    let ranges: Vec<std::ops::Range<usize>> = (0..nodes_n)
        .map(|i| i * n / nodes_n..(i + 1) * n / nodes_n)
        .collect();
    let shards_per_node = spec::SHARDS / ranges.len();
    let mut build = Duration::ZERO;
    let mut nodes = Vec::new();
    let mut file_bytes = 0;
    let mut sid_base = 0u32;
    for (i, range) in ranges.iter().enumerate() {
        let (koko, d) = tr.time("setup.build", parent, 0, || {
            Koko::from_texts_with_opts(&texts[range.clone()], build_opts(shards_per_node))
        });
        build += d;
        let file = dir.join(format!("{}-{tag}-{i}.koko", workload.name()));
        let (bytes, d) = tr.time("storage.save", parent, 0, || {
            koko.save(&file).expect("save snapshot")
        });
        layers.add_time("storage.save_ms", d);
        file_bytes += bytes;
        let served = Koko::open_with_opts(&file, build_opts(shards_per_node)).expect("open");
        let engine = sequential(&served);
        let next_sid = sid_base + koko.snapshot().num_sentences() as u32;
        nodes.push(Node {
            server: bind(served, false),
            engine,
            doc_base: range.start as u32,
            sid_base,
            file,
        });
        sid_base = next_sid;
    }
    let coordinator = (workload == Workload::ClusterRead).then(|| {
        let map = ShardMap {
            version: 1,
            epoch: 0,
            mode: Mode::Strict,
            workers: nodes
                .iter()
                .zip(&ranges)
                .enumerate()
                .map(|(i, (n, r))| WorkerEntry {
                    name: format!("w{i}"),
                    addr: n.server.local_addr().to_string(),
                    replicas: vec![],
                    doc_base: n.doc_base,
                    docs: r.len() as u32,
                    sid_base: n.sid_base,
                    snapshot: None,
                })
                .collect(),
        };
        Coordinator::bind(map, "127.0.0.1:0", CoordinatorConfig::default()).expect("coordinator")
    });
    let addr = match &coordinator {
        Some(c) => c.local_addr().to_string(),
        None => nodes[0].server.local_addr().to_string(),
    };
    Served {
        texts,
        nodes,
        coordinator,
        addr,
        file_bytes,
        build,
        total: t0.elapsed(),
    }
}

/// `Koko::open` of each snapshot file plus its first `chocolate` query,
/// summed over the files, with the open time and the first-touch cost
/// (first minus a warm query) of the same opens, in milliseconds.
pub fn cold_query(files: &[PathBuf], opts: EngineOpts) -> (f64, f64, f64) {
    let chocolate = QueryRequest::new(koko_lang::queries::CHOCOLATE).cache(false);
    let (mut cold, mut open, mut touch) = (0.0, 0.0, 0.0);
    for file in files {
        let t = Instant::now();
        let koko = Koko::open_with_opts(file, opts).expect("reopen snapshot");
        let opened = t.elapsed();
        chocolate.run(&koko).expect("first query");
        let first = t.elapsed() - opened;
        let t = Instant::now();
        chocolate.run(&koko).expect("warm query");
        let warm = t.elapsed();
        cold += (opened + first).as_secs_f64() * 1e3;
        open += opened.as_secs_f64() * 1e3;
        touch += first.saturating_sub(warm).as_secs_f64() * 1e3;
    }
    (cold, open, touch)
}

/// The reference reply rows of every class, computed in-process on a
/// single-node engine built from the same texts.
pub fn reference_rows(engine: &Koko, classes: &[ReadClass]) -> Vec<String> {
    classes
        .iter()
        .map(|c| {
            let out = c.request(false).run(engine).expect("reference query runs");
            koko_serve::rows_json(&out.rows)
        })
        .collect()
}

/// In-process rows of one worker for a coordinator-style fan-out, with
/// document and sentence ids remapped to the whole corpus.
fn worker_rows(node: &Node, class: &ReadClass) -> Vec<koko_core::Row> {
    let mut rows = class
        .request(false)
        .run(&node.engine)
        .expect("worker query runs")
        .rows;
    for r in &mut rows {
        r.doc += node.doc_base;
        for v in &mut r.values {
            v.sid += node.sid_base;
        }
    }
    rows
}

fn send(client: &mut Client, class: &ReadClass) -> String {
    let reply = match class.wire_opts() {
        Some(opts) => client.query_with_opts(class.query, false, opts),
        None => client.query(class.query, false),
    };
    reply.unwrap_or_else(measure::failed_reply)
}

/// Rounds each phase runs at least, whatever `--seconds` says.
pub const MIN_ROUNDS: usize = 5;
/// Rounds the end-to-end metrics pool (of about 30 in a 40 s run).
const KEEP_ROUNDS: usize = 14;

/// Set up a second instance of the workload, time it into the round in
/// progress, and take it down.
fn sample_setup(
    workload: Workload,
    args: &RunArgs,
    tr: &mut Tracer,
    phase: SpanId,
    layers: &mut Layers,
    rt: &mut RoundTrips,
) {
    let id = tr.begin("setup", phase, 0);
    let (s, _, scale) = rt.timed(|| {
        set_up(
            workload,
            args.seed,
            &args.work_dir,
            "sample",
            tr,
            id,
            layers,
        )
    });
    let round = rt.current();
    round.setup.push_ms(s.total.as_secs_f64() * 1e3 * scale);
    let rate = s.texts.len() as f64 / (s.build.as_secs_f64() * scale);
    round.ingest_docs_per_s.push_ms(rate);
    Served::shutdown(s);
    tr.end(id);
}

/// Cold opens + first queries timed per round: one is over in about
/// 20 ms, and a single sample per round left its median unsteady.
const COLD_PER_ROUND: usize = 3;

/// Time [`COLD_PER_ROUND`] cold opens + first queries of the served files
/// into the round in progress.
pub fn sample_cold(
    files: &[PathBuf],
    opts: EngineOpts,
    tr: &mut Tracer,
    phase: SpanId,
    layers: &mut Layers,
    rt: &mut RoundTrips,
) {
    for _ in 0..COLD_PER_ROUND {
        let (((cold, open, touch), _), _, scale) =
            rt.timed(|| tr.time("storage.cold_open", phase, 0, || cold_query(files, opts)));
        rt.current().cold.push_ms(cold * scale);
        layers.add("storage.open_ms", open);
        layers.add("storage.first_touch_ms", touch);
    }
}

pub fn run(workload: Workload, args: &RunArgs) -> Outcome {
    let classes = spec::read_classes();
    let mut tr = Tracer::new(args.trace);
    let mut layers = Layers::default();

    let served = set_up(
        workload,
        args.seed,
        &args.work_dir,
        "serve",
        &mut tr,
        SpanId::NONE,
        &mut layers,
    );
    let text_bytes = spec::text_bytes(&served.texts);

    if args.trace {
        // nlp.parse_ms: the set-up's parse of the corpus, timed in the
        // 64-document batches live ingest adds.
        let pipeline = koko_nlp::Pipeline::new();
        for (i, chunk) in served.texts.chunks(spec::INGEST_BATCH).enumerate() {
            let first = (i * spec::INGEST_BATCH) as u32;
            let (_, d) = tr.time("nlp.parse", SpanId::NONE, 0, || {
                std::hint::black_box(pipeline.parse_documents(chunk, first, 0))
            });
            layers.add_time("nlp.parse_ms", d);
        }
    }

    // The reference: a single-node engine built from the same texts.
    let single = Koko::from_texts_with_opts(&served.texts, build_opts(spec::SHARDS));
    let reference = reference_rows(&single, &classes);
    let inproc = match workload {
        Workload::ClusterRead => sequential(&single),
        _ => served.nodes[0].engine.clone(),
    };
    let files: Vec<PathBuf> = served.nodes.iter().map(|n| n.file.clone()).collect();
    let open_opts = build_opts(spec::SHARDS / served.nodes.len());

    let mut client = Client::connect(&served.addr).expect("connect");
    let mut rt = RoundTrips::default();
    // Warm-up: every class once (decodes the lazily mapped shards),
    // checked like any other request but not timed.
    for (i, c) in classes.iter().enumerate() {
        let reply = send(&mut client, c);
        rt.check(measure::rows_match(&reply, &reference[i]), || {
            format!("warm-up {}: {}", c.name, &reply[..reply.len().min(200)])
        });
    }

    // A traced run measures an untraced half first, for the overhead.
    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let phase_len = args.seconds / phases.len() as f64;
    let mut summary = Summary::default();
    let mut request = 0u64;
    for &traced in phases {
        tr.set_enabled(traced);
        let phase = tr.begin("phase", SpanId::NONE, 0);
        let mut phase_rt = RoundTrips::default();
        let start = Instant::now();
        let keep = if args.trace { MIN_ROUNDS } else { KEEP_ROUNDS };
        while phase_rt.wants_more(start.elapsed().as_secs_f64(), phase_len, keep) {
            phase_rt.begin_round();
            // Two of each: with one set-up per round, the medians of the
            // set-up figures spread by up to 0.12 over ten seeds.
            for _ in 0..2 {
                sample_setup(workload, args, &mut tr, phase, &mut layers, &mut phase_rt);
                sample_cold(
                    &files,
                    open_opts,
                    &mut tr,
                    phase,
                    &mut layers,
                    &mut phase_rt,
                );
            }
            for idx in spec::read_round(&classes) {
                let c = &classes[idx];
                request += 1;
                let op = tr.begin("op", phase, request);
                let (reply, took, scale) = phase_rt.timed(|| {
                    let rt_span = tr.begin("serve.round_trip", op, request);
                    let reply = send(&mut client, c);
                    tr.end(rt_span);
                    reply
                });
                phase_rt.record_read(c, took, scale);
                let (ok, _) = tr.time("bench.check", op, request, || {
                    measure::rows_match(&reply, &reference[idx])
                });
                phase_rt.check(ok, || format!("{} differs from the reference", c.name));
                if traced {
                    let (_, run) =
                        measure::probe_read(&mut tr, op, request, &inproc, c, &mut layers);
                    layers.add_time("serve.overhead_ms", took.saturating_sub(run));
                    if workload == Workload::ClusterRead {
                        probe_cluster(&mut tr, op, request, &served, c, &reply, took, &mut layers);
                    }
                }
                tr.end(op);
            }
            phase_rt.end_round();
        }
        tr.end(phase);
        rt.attempted += phase_rt.attempted;
        rt.failed += phase_rt.failed;
        let phase_summary = phase_rt.summary(keep);
        if traced {
            layers.add("trace.traced_read_qps", phase_summary.qps.median());
            layers.add("trace.untraced_read_qps", summary.qps.median());
        } else {
            // The end-to-end numbers come from the untraced phase only.
            summary = phase_summary;
        }
    }
    drop(client);
    let file_bytes = served.file_bytes;
    let n_texts = served.texts.len();
    Served::shutdown(served);
    drop(single);

    let mut out = Outcome::new(rt.attempted, rt.failed);
    out.end_to_end = end_to_end(&summary, &rt, file_bytes as f64 / text_bytes as f64);
    layers.add("storage.file_bytes", file_bytes as f64);
    layers.add("cache.result_hit_ratio", 0.0);
    out.notes = notes(&summary, n_texts, text_bytes, file_bytes, &classes);
    out.layers = layers;
    out.tracer = tr;
    out
}

/// The coordinator's share of one traced request: the slowest worker's
/// round trip (the reply's `remote_wait_us`), the rest of the client's
/// round trip, and `merge_rows` over the two workers' rows.
#[allow(clippy::too_many_arguments)]
fn probe_cluster(
    tr: &mut Tracer,
    op: SpanId,
    request: u64,
    served: &Served,
    class: &ReadClass,
    reply: &str,
    took: Duration,
    layers: &mut Layers,
) {
    let wait_ms = measure::reply_number(reply, "remote_wait_us").unwrap_or(f64::NAN) / 1e3;
    layers.add("cluster.worker_rtt_ms", wait_ms);
    layers.add("cluster.overhead_ms", took.as_secs_f64() * 1e3 - wait_ms);
    let per_worker: Vec<Vec<koko_core::Row>> =
        served.nodes.iter().map(|n| worker_rows(n, class)).collect();
    let (_, d) = tr.time("cluster.merge", op, request, || {
        std::hint::black_box(koko_cluster::merge::merge_rows(per_worker, class.topk))
    });
    layers.add_time("cluster.merge_ms", d);
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end(s: &Summary, rt: &RoundTrips, bytes_per_text_byte: f64) -> Vec<Metric> {
    let success = (rt.attempted - rt.failed) as f64 / rt.attempted as f64;
    let tail = s.full.tail().map_or(f64::NAN, |(_, v, _)| v);
    vec![
        metric("read_p50_ms", s.full.median(), "ms"),
        metric("read_tail_ms", tail, "ms"),
        metric("read_qps", s.qps.median(), "1/s"),
        metric("topk_p50_ms", s.topk.median(), "ms"),
        metric("ingest_docs_per_s", s.ingest.median(), "1/s"),
        metric("cold_query_ms", s.cold.median(), "ms"),
        metric("setup_s", s.setup.median() / 1e3, "s"),
        metric("success_rate", success, "ratio"),
        metric("peak_rss_mb", measure::peak_rss_mib(), "MiB"),
        metric("index_bytes_per_text_byte", bytes_per_text_byte, "ratio"),
    ]
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Lines printed before the result: per-class medians, the tail rule's
/// choice, the rounds kept, corpus and snapshot sizes and the mix.
pub fn notes(
    s: &Summary,
    docs: usize,
    text_bytes: usize,
    file_bytes: u64,
    classes: &[ReadClass],
) -> Vec<String> {
    let mut lines = Vec::new();
    for (name, samples) in &s.by_class {
        lines.push(format!(
            "class.{name}.p50_ms {:.4} ms (n={})",
            samples.median(),
            samples.len()
        ));
    }
    match s.full.tail() {
        Some((q, v, beyond)) => lines.push(format!(
            "read_tail_ms is p{} = {v:.4} ms over {} samples ({beyond} beyond)",
            q * 100.0,
            s.full.len()
        )),
        None => lines.push(format!("read_tail_ms: too few samples ({})", s.full.len())),
    }
    lines.push(format!(
        "kept {} of {} rounds: probe p10 {:.4} p50 {:.4} p90 {:.4} ms (times scaled to {} ms), steal share at most {:.3}",
        s.kept,
        s.rounds,
        s.probe.percentile(0.1),
        s.probe.median(),
        s.probe.percentile(0.9),
        measure::PROBE_REF_MS,
        s.max_steal
    ));
    lines.push(format!(
        "read_p50_ms unscaled {:.4} ms",
        s.raw_full.median()
    ));
    lines.push(format!(
        "corpus {docs} documents, {text_bytes} text bytes; snapshot {file_bytes} bytes"
    ));
    let mix: Vec<String> = classes
        .iter()
        .filter(|c| c.weight > 0)
        .map(|c| format!("{}={}", c.name, c.weight))
        .collect();
    if !mix.is_empty() {
        lines.push(format!("mix per round: {}", mix.join(" ")));
    }
    lines
}
