//! The same seed must give the same inputs and the same reference
//! answers; another seed must give another corpus.

use koko_core::{EngineOpts, Koko};
use koko_perfbench::spec::{self, digest};
use koko_perfbench::{ingest, read};

/// Small sizes keep the test quick in debug builds; the generators and
/// the reference paths are the ones the benchmark runs.
const ARTICLES: usize = 80;

fn read_digests(seed: u64) -> Vec<u64> {
    let texts = spec::mixed_corpus(seed, ARTICLES);
    let engine = Koko::from_texts_with_opts(&texts, read::build_opts(spec::SHARDS));
    read::reference_rows(&engine, &spec::read_classes())
        .iter()
        .map(|rows| digest(rows.as_bytes()))
        .collect()
}

fn ingest_digests(plan: &spec::IngestPlan) -> Vec<String> {
    let base = Koko::from_texts_with_opts(
        &plan.base,
        EngineOpts {
            num_shards: spec::SHARDS,
            ..EngineOpts::default()
        },
    );
    ingest::replay(plan, base)
        .into_iter()
        .map(|e| match e {
            ingest::Expect::Rows(rows) => format!("{:016x}", digest(rows.as_bytes())),
            other => format!("{other:?}"),
        })
        .collect()
}

#[test]
fn same_seed_same_schedule_and_references() {
    assert_eq!(
        spec::ingest_plan(5, 40, 8, 6),
        spec::ingest_plan(5, 40, 8, 6)
    );
    assert_eq!(read_digests(5), read_digests(5));
    let plan = spec::ingest_plan(5, 40, 8, 6);
    assert_eq!(ingest_digests(&plan), ingest_digests(&plan));
    assert_eq!(spec::ingest_seeds(5), spec::ingest_seeds(5));
}

#[test]
fn different_seed_different_corpus() {
    assert_ne!(
        spec::mixed_corpus(5, ARTICLES),
        spec::mixed_corpus(6, ARTICLES)
    );
    assert_ne!(
        spec::ingest_plan(5, 40, 8, 6),
        spec::ingest_plan(6, 40, 8, 6)
    );
    // A run's live-ingest plans differ from each other and from those of
    // another seed.
    let (a, b) = (spec::ingest_seeds(5), spec::ingest_seeds(6));
    assert_eq!(a.len(), spec::INGEST_PLANS);
    for (i, s) in a.iter().enumerate() {
        assert!(!a[..i].contains(s) && !b.contains(s));
    }
}

#[test]
fn schedules_follow_the_specified_mix() {
    let classes = spec::read_classes();
    let round = spec::read_round(&classes);
    for (i, c) in classes.iter().enumerate() {
        assert_eq!(
            round.iter().filter(|&&x| x == i).count(),
            c.weight,
            "{}",
            c.name
        );
    }
    // Spread evenly: no class runs twice in a row while another waits.
    let chocolate = classes.iter().position(|c| c.name == "chocolate").unwrap();
    assert!(round.windows(3).all(|w| w.iter().any(|&x| x != chocolate)));
    let plan = spec::ingest_plan(5, spec::INGEST_BASE, spec::INGEST_BATCH, spec::INGEST_ADDS);
    assert_eq!(plan.batches.len(), spec::INGEST_ADDS);
    assert!(plan.batches.iter().all(|b| b.len() == spec::INGEST_BATCH));
    let compacts = plan.ops.iter().filter(|o| **o == spec::Op::Compact).count();
    assert_eq!(compacts, spec::INGEST_ADDS / spec::COMPACT_EVERY);
}
