//! The `live-ingest` workload: a writable single-node server fed a fixed
//! seeded schedule of adds, cheap reads and compactions. Every operation
//! is issued in schedule order from one client; each cycle restarts from
//! the base snapshot, so the shard layout and cache state before each
//! operation repeat exactly from cycle to cycle and from run to run.

use crate::measure::{self, Layers, RoundTrips, Summary};
use crate::read::{bind, build_opts, end_to_end, notes, sample_cold, sequential, MIN_ROUNDS};
use crate::spec::{self, IngestPlan, Op};
use crate::trace::{SpanId, Tracer};
use crate::{Outcome, RunArgs};
use koko_core::{EngineOpts, Koko};
use koko_serve::{Client, Server};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What the in-process replay of the schedule says each reply must be.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Add { added: usize, documents: usize },
    Compact { merged_deltas: usize },
    Rows(String),
}

/// A writable server opens its snapshot eagerly, as `koko serve
/// --writable` does.
fn writable_opts() -> EngineOpts {
    EngineOpts {
        eager_load: true,
        ..build_opts(spec::SHARDS)
    }
}

/// Replay the schedule in-process on `base`, an engine opened on the base
/// snapshot the way the server opens it.
pub fn replay(plan: &IngestPlan, base: Koko) -> Vec<Expect> {
    let classes = spec::ingest_classes();
    plan.ops
        .iter()
        .map(|op| match *op {
            Op::Add(i) => {
                let r = base.add_texts(&plan.batches[i]);
                Expect::Add {
                    added: r.added,
                    documents: r.documents,
                }
            }
            Op::Compact => Expect::Compact {
                merged_deltas: base.compact().merged_deltas,
            },
            Op::Read(c) => {
                let out = classes[c].request(false).run(&base).expect("replayed read");
                Expect::Rows(koko_serve::rows_json(&out.rows))
            }
        })
        .collect()
}

fn reply_matches(reply: &str, expect: &Expect) -> bool {
    let field = |k: &str| measure::reply_number(reply, k).map(|v| v as usize);
    match expect {
        Expect::Add { added, documents } => {
            reply.contains("\"ok\":true")
                && field("added") == Some(*added)
                && field("documents") == Some(*documents)
        }
        Expect::Compact { merged_deltas } => {
            reply.contains("\"ok\":true") && field("merged_deltas") == Some(*merged_deltas)
        }
        Expect::Rows(rows) => measure::rows_match(reply, rows),
    }
}

/// One pass over the schedule against a fresh server.
#[allow(clippy::too_many_arguments)]
fn cycle(
    server: Server,
    inproc: &Koko,
    plan: &IngestPlan,
    expect: &[Expect],
    traced: bool,
    tr: &mut Tracer,
    phase: SpanId,
    request: &mut u64,
    rt: &mut RoundTrips,
    layers: &mut Layers,
) {
    let classes = spec::ingest_classes();
    let pipeline = traced.then(koko_nlp::Pipeline::new);
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    // Requests evaluated since the last write; later reads of the same
    // request are cache hits.
    let mut evaluated: Vec<(&str, bool)> = Vec::new();
    for (op, want) in plan.ops.iter().zip(expect) {
        *request += 1;
        let id = tr.begin("op", phase, *request);
        let before = traced.then(|| inproc.snapshot());
        let (reply, took, scale) = rt.timed(|| {
            let rt_span = tr.begin("serve.round_trip", id, *request);
            let reply = match *op {
                Op::Add(i) => client.add(&plan.batches[i]),
                Op::Compact => client.compact(),
                Op::Read(c) => {
                    let class = &classes[c];
                    match class.wire_opts() {
                        Some(opts) => client.query_with_opts(class.query, true, opts),
                        None => client.query(class.query, true),
                    }
                }
            }
            .unwrap_or_else(measure::failed_reply);
            tr.end(rt_span);
            reply
        });
        let (ok, _) = tr.time("bench.check", id, *request, || reply_matches(&reply, want));
        rt.check(ok, || format!("{op:?}: {}", &reply[..reply.len().min(200)]));
        match *op {
            Op::Add(i) => {
                rt.record_write("add", took, scale, plan.batches[i].len());
                evaluated.clear();
                if let (Some(snap), Some(pipeline)) = (&before, &pipeline) {
                    // The server's add, replayed layer by layer: parse the
                    // batch, then rebuild the open delta.
                    let first = snap.num_documents() as u32;
                    let (docs, d) = tr.time("nlp.parse", id, *request, || {
                        pipeline.parse_documents(&plan.batches[i], first, 0)
                    });
                    layers.add_time("nlp.parse_ms", d);
                    let (_, d) = tr.time("index.delta_build", id, *request, || {
                        std::hint::black_box(snap.with_added_documents(docs))
                    });
                    layers.add_time("index.delta_build_ms", d);
                }
            }
            Op::Compact => {
                rt.record_write("compact", took, scale, 0);
                evaluated.clear();
                if let Some(snap) = &before {
                    let (_, d) = tr.time("index.compact", id, *request, || {
                        std::hint::black_box(snap.compacted(spec::SHARDS, true))
                    });
                    layers.add_time("index.compact_ms", d);
                }
            }
            Op::Read(c) => {
                let class = &classes[c];
                rt.record_read(class, took, scale);
                // Only an evaluated read has an in-process counterpart; a
                // cache hit is all serving.
                let request_key = (class.query, class.topk);
                if !evaluated.contains(&request_key) {
                    if traced {
                        let (_, run) = measure::probe_read(tr, id, *request, inproc, class, layers);
                        layers.add_time("serve.overhead_ms", took.saturating_sub(run));
                    }
                    evaluated.push(request_key);
                }
            }
        }
        tr.end(id);
    }
    let stats = client.stats().unwrap_or_else(measure::failed_reply);
    let hits = measure::reply_number(&stats, "result_cache_hits").unwrap_or(0.0);
    let misses = measure::reply_number(&stats, "result_cache_misses").unwrap_or(0.0);
    layers.add("cache.result_hit_ratio", hits / (hits + misses).max(1.0));
    drop(client);
    server.shutdown();
}

struct Setup {
    server: Server,
    engine: Koko,
    plan: IngestPlan,
    file_bytes: u64,
    total: Duration,
}

/// Generate plan `g` of the run, build and save its base, open it
/// writable, bind.
fn set_up(args: &RunArgs, g: usize, tr: &mut Tracer, parent: SpanId, layers: &mut Layers) -> Setup {
    let t0 = Instant::now();
    let plan = spec::ingest_plan(
        spec::ingest_seeds(args.seed)[g],
        spec::INGEST_BASE,
        spec::INGEST_BATCH,
        spec::INGEST_ADDS,
    );
    let (built, _) = tr.time("setup.build", parent, 0, || {
        Koko::from_texts_with_opts(&plan.base, build_opts(spec::SHARDS))
    });
    let (file_bytes, d) = tr.time("storage.save", parent, 0, || {
        built.save(&base_file(args, g)).expect("save base snapshot")
    });
    layers.add_time("storage.save_ms", d);
    let koko = Koko::open_with_opts(&base_file(args, g), writable_opts()).expect("open base");
    let engine = sequential(&koko);
    Setup {
        server: bind(koko, true),
        engine,
        plan,
        file_bytes,
        total: t0.elapsed(),
    }
}

fn base_file(args: &RunArgs, g: usize) -> PathBuf {
    args.work_dir.join(format!("live-ingest-base-{g}.koko"))
}

/// Cycles the end-to-end metrics pool (of about 40 in a 40 s run), the
/// same number from each plan.
const KEEP_CYCLES: usize = 24;
const _: () = assert!(KEEP_CYCLES.is_multiple_of(spec::INGEST_PLANS));

/// One plan of the run, with what its replies must be.
struct Planned {
    plan: IngestPlan,
    expect: Vec<Expect>,
    file_bytes: u64,
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut tr = Tracer::new(args.trace);
    let mut layers = Layers::default();

    // The first set-up of each plan provides the plan and the base the
    // reference replays from; every cycle then sets up afresh.
    let plans: Vec<Planned> = (0..spec::INGEST_PLANS)
        .map(|g| {
            let first = set_up(args, g, &mut tr, SpanId::NONE, &mut layers);
            first.server.shutdown();
            let base =
                Koko::open_with_opts(&base_file(args, g), writable_opts()).expect("open base");
            Planned {
                expect: replay(&first.plan, base),
                plan: first.plan,
                file_bytes: first.file_bytes,
            }
        })
        .collect();

    let mut rt = RoundTrips::default();
    let phases: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let phase_len = args.seconds / phases.len() as f64;
    let mut summary = Summary::default();
    let mut request = 0u64;
    for &traced in phases {
        tr.set_enabled(traced);
        let phase = tr.begin("phase", SpanId::NONE, 0);
        let mut phase_rt = RoundTrips::default();
        let start = Instant::now();
        let keep = if args.trace {
            MIN_ROUNDS.next_multiple_of(spec::INGEST_PLANS)
        } else {
            KEEP_CYCLES
        };
        while phase_rt.wants_more(start.elapsed().as_secs_f64(), phase_len, keep) {
            // Cycles go through the plans in turn.
            let g = phase_rt.rounds.len() % plans.len();
            phase_rt.begin_round();
            phase_rt.current().group = g;
            let id = tr.begin("setup", phase, 0);
            let (setup, _, scale) = phase_rt.timed(|| set_up(args, g, &mut tr, id, &mut layers));
            tr.end(id);
            let ms = setup.total.as_secs_f64() * 1e3 * scale;
            phase_rt.current().setup.push_ms(ms);
            sample_cold(
                std::slice::from_ref(&base_file(args, g)),
                build_opts(spec::SHARDS),
                &mut tr,
                phase,
                &mut layers,
                &mut phase_rt,
            );
            cycle(
                setup.server,
                &setup.engine,
                &plans[g].plan,
                &plans[g].expect,
                traced,
                &mut tr,
                phase,
                &mut request,
                &mut phase_rt,
                &mut layers,
            );
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
            summary = phase_summary;
        }
    }
    for g in 0..plans.len() {
        let _ = std::fs::remove_file(base_file(args, g));
    }

    let docs: usize = plans.iter().map(|p| p.plan.base.len()).sum();
    let text_bytes: usize = plans.iter().map(|p| spec::text_bytes(&p.plan.base)).sum();
    let file_bytes: u64 = plans.iter().map(|p| p.file_bytes).sum();
    let mut out = Outcome::new(rt.attempted, rt.failed);
    out.end_to_end = end_to_end(&summary, &rt, file_bytes as f64 / text_bytes as f64);
    for p in &plans {
        layers.add("storage.file_bytes", p.file_bytes as f64);
    }
    out.notes = notes(&summary, docs, text_bytes, file_bytes, &[]);
    out.notes.push(format!(
        "bases of the {} plans together (plan seeds {:?})",
        plans.len(),
        spec::ingest_seeds(args.seed)
    ));
    let s = &summary;
    out.notes.extend([
        format!("write_p50_ms {:.4} ms (n={})", s.adds.median(), s.adds.len()),
        match s.adds.tail() {
            Some((q, v, beyond)) => format!(
                "write_tail_ms {v:.4} ms (p{} over {} adds, {beyond} beyond)",
                q * 100.0,
                s.adds.len()
            ),
            None => format!("write_tail_ms: too few adds ({})", s.adds.len()),
        },
        format!(
            "compact_p50_ms {:.4} ms (n={})",
            s.compacts.median(),
            s.compacts.len()
        ),
        format!(
            "schedule per cycle: {} adds of {} documents, a compact every {}, reads title/chocolate/dob-top10 then {} cached chocolate reads after each add",
            spec::INGEST_ADDS,
            spec::INGEST_BATCH,
            spec::COMPACT_EVERY,
            spec::INGEST_CACHED_READS
        ),
    ]);
    out.layers = layers;
    out.tracer = tr;
    out
}
