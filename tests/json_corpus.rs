//! Seeded mutation corpus over every reader of untrusted bytes: the JSON
//! readers, the module text of fuzz replay artifacts and the sealed
//! campaign journal.
//!
//! Valid documents from the encoders (event stream, Perfetto timeline,
//! attribution report, table, worker protocol in both directions, shard
//! stats, `serial::to_text` of a generated program, a sealed journal) are
//! mutated by truncation, bit flips, splices, deep nesting and huge or
//! inexact numerals, and every mutant is fed to `parse_json`,
//! `events_from_json`, `ToWorker::parse`, `FromWorker::parse`,
//! `ShardStats::from_json`, `serial::parse` and `journal::parse_sealed`.
//! Each reader must return an error or a value whose re-encoding parses
//! back equal; a panic fails the test and an abort (stack overflow) kills
//! it.
//!
//! Tier 1 runs a bounded corpus; the long corpus is `#[ignore]`d and runs
//! nightly with `cargo test --release --test json_corpus -- --ignored`.

use std::collections::HashSet;
use std::mem::discriminant;
use std::panic::catch_unwind;

use tls_repro::experiments::attrib::attribute;
use tls_repro::experiments::fuzz::FuzzConfig;
use tls_repro::experiments::journal::{fnv64, parse_sealed, seal_line, SealedLog};
use tls_repro::experiments::proto::{FromWorker, Job, JobSpec, ShardStats, ToWorker};
use tls_repro::experiments::{spec_modes, Harness, Table};
use tls_repro::ir::{generate, serial, GenConfig, GenFamily, SplitMix64};
use tls_repro::sim::{
    events_from_json, events_to_json, parse_json, perfetto_json, AdaptConfig, FaultClass,
    RecordingTracer, TraceEvent,
};

/// Up to two events of every kind the simulator emitted on an adaptive
/// phase-shift program, plus the kinds it did not emit.
fn sample_events() -> Vec<TraceEvent> {
    let cfg = FuzzConfig {
        gen: GenConfig::for_family(GenFamily::PhaseShift),
        ..FuzzConfig::default()
    };
    let measure = generate(16, &cfg.gen, 0);
    let train = generate(16, &cfg.gen, 1);
    let mut h = Harness::from_modules(
        "json-corpus",
        &measure,
        Some(&train),
        &cfg.compile_options(),
    )
    .expect("prepares");
    h.base.max_steps = cfg.max_sim_steps;
    h.base.adapt = Some(AdaptConfig {
        window: 100,
        ..AdaptConfig::default()
    });
    let mut seen: Vec<TraceEvent> = Vec::new();
    for &mode in spec_modes() {
        let mut rec = RecordingTracer::default();
        h.run_traced(mode, &mut rec).expect("traced run");
        for ev in rec.events {
            let kind = discriminant(&ev);
            if seen.iter().filter(|e| discriminant(*e) == kind).count() < 2 {
                seen.push(ev);
            }
        }
    }
    seen.push(TraceEvent::FaultInject {
        class: FaultClass::DropSignal,
        epoch: 3,
        addr: Some(-7),
        time: 9,
    });
    seen.push(TraceEvent::LineEvict {
        core: 1,
        line: i64::MIN,
        speculative: true,
        time: 4,
    });
    seen
}

/// A campaign journal in the orchestrator's record format: a header
/// fingerprinting the job spec, then one sealed `done` line per shard.
fn sealed_journal(spec: &JobSpec, stats: &ShardStats) -> String {
    [
        format!(
            "campaign kind={} config={:016x} seed0=1 total=6 shard=2",
            spec.kind(),
            fnv64(spec.encode().as_bytes())
        ),
        format!("done shard=0 {}", stats.to_json()),
        format!("done shard=2 {}", ShardStats::default().to_json()),
    ]
    .iter()
    .map(|record| seal_line(record) + "\n")
    .collect()
}

/// One valid document per encoder the readers see.
fn seed_documents() -> Vec<String> {
    let events = sample_events();
    let kinds: HashSet<_> = events.iter().map(discriminant).collect();
    assert!(
        kinds.len() >= 12,
        "only {} event kinds sampled",
        kinds.len()
    );
    let mut table = Table::new("demo \"quoted\"\ttab", &["bench", "U"]);
    table.row(vec!["go".into(), "1.00".into()]);
    let stats = ShardStats {
        seeds: 64,
        regions: 60,
        oracle_steps: 123_456,
        failed: vec![7, 12],
        errored: vec![20],
        ..ShardStats::default()
    };
    let job = |spec| {
        ToWorker::Job(Job {
            shard: 3,
            attempt: 1,
            seed0: 9_007_199_254_740_000,
            count: 64,
            index0: 192,
            crash_at: Some(9_007_199_254_740_005),
            spec,
        })
    };
    let mut docs = vec![
        events_to_json(&events),
        perfetto_json(&events),
        attribute(&events).to_json("corpus", "U", 2),
        table.to_json(),
        stats.to_json(),
        job(JobSpec::Fuzz {
            family: GenFamily::MixedNests,
            break_forwarding: false,
        })
        .encode(),
        job(JobSpec::Conform {
            family: GenFamily::Baseline,
        })
        .encode(),
        job(JobSpec::Inject {
            bench: "dir \"q\"".into(),
            mode: "C".into(),
            scale: "quick".into(),
            faults: "both".into(),
            rate: 0.05,
            budget: 8,
        })
        .encode(),
        ToWorker::Shutdown.encode(),
        sealed_journal(
            &JobSpec::Fuzz {
                family: GenFamily::Baseline,
                break_forwarding: false,
            },
            &stats,
        ),
        format!(
            "# tls-fuzz failure artifact\n# seed: 16\n{}",
            serial::to_text(&generate(
                16,
                &GenConfig::for_family(GenFamily::PhaseShift),
                0
            ))
        ),
    ];
    docs.extend(
        [
            FromWorker::Hello { pid: 4242 },
            FromWorker::Heartbeat { shard: 3, done: 17 },
            FromWorker::Result { shard: 3, stats },
            FromWorker::Error {
                shard: 9,
                detail: "panicked: \"x\" — \u{1}".into(),
            },
            FromWorker::Bye,
        ]
        .iter()
        .map(FromWorker::encode),
    );
    docs
}

/// Numerals a reader must not round, wrap or overflow on.
const NUMERALS: &[&str] = &[
    "1e400",
    "-1e400",
    "9007199254740993",
    "9007199254740992",
    "18446744073709551616",
    "-3",
    "2.9",
    "-0",
    "1e-400",
    "1e15",
    "4294967296",
];

/// A random range `i..j` within `0..=len`.
fn cut(rng: &mut SplitMix64, len: usize) -> (usize, usize) {
    let (x, y) = (rng.pick(len + 1), rng.pick(len + 1));
    (x.min(y), x.max(y))
}

/// One mutant of `doc`, spliced with material from `docs` where needed.
fn mutate(rng: &mut SplitMix64, doc: &str, docs: &[String]) -> String {
    if doc.is_empty() {
        return docs[rng.pick(docs.len())].clone();
    }
    let b = doc.as_bytes();
    let bytes: Vec<u8> = match rng.pick(6) {
        // Truncation.
        0 => b[..cut(rng, b.len()).1].to_vec(),
        // Bit flip.
        1 => {
            let mut v = b.to_vec();
            let i = rng.pick(v.len());
            v[i] ^= 1 << rng.pick(8);
            v
        }
        // Splice a slice of another document over a range of this one.
        2 => {
            let other = docs[rng.pick(docs.len())].as_bytes();
            let (i, j) = cut(rng, b.len());
            let (k, l) = cut(rng, other.len());
            [&b[..i], &other[k..l], &b[j..]].concat()
        }
        // Deep nesting.
        3 => {
            let depth = if rng.chance(0.1) {
                100_000
            } else {
                rng.pick(300)
            };
            let open = if rng.chance(0.5) { "[" } else { "{\"a\":" };
            let at = cut(rng, b.len()).0;
            [&b[..at], open.repeat(depth).as_bytes(), &b[at..]].concat()
        }
        // A numeral replaced by a huge or inexact one.
        4 => {
            let digits: Vec<usize> = (0..b.len()).filter(|&i| b[i].is_ascii_digit()).collect();
            if digits.is_empty() {
                b.to_vec()
            } else {
                let start = digits[rng.pick(digits.len())];
                let end = start + b[start..].iter().take_while(|c| c.is_ascii_digit()).count();
                let numeral = if rng.chance(0.1) {
                    format!("1{}", "0".repeat(400))
                } else {
                    NUMERALS[rng.pick(NUMERALS.len())].to_string()
                };
                [&b[..start], numeral.as_bytes(), &b[end..]].concat()
            }
        }
        // A duplicated or deleted range.
        _ => {
            let (i, j) = cut(rng, b.len());
            if rng.chance(0.5) {
                [&b[..j], &b[i..]].concat()
            } else {
                [&b[..i], &b[j..]].concat()
            }
        }
    };
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The invariant: every reader errors or round-trips what it accepted.
fn check(doc: &str) {
    if let Ok(v) = parse_json(doc) {
        assert_eq!(
            parse_json(&v.to_string()).as_ref(),
            Ok(&v),
            "re-encoded value"
        );
        if let Ok(st) = ShardStats::from_json(&v) {
            let again = parse_json(&st.to_json()).expect("stats re-encode");
            assert_eq!(ShardStats::from_json(&again), Ok(st), "shard stats");
        }
    }
    if let Ok(evs) = events_from_json(doc) {
        assert_eq!(events_from_json(&events_to_json(&evs)), Ok(evs), "events");
    }
    if let Ok(msg) = ToWorker::parse(doc) {
        assert_eq!(
            ToWorker::parse(&msg.encode()),
            Ok(msg),
            "orchestrator message"
        );
    }
    if let Ok(msg) = FromWorker::parse(doc) {
        assert_eq!(FromWorker::parse(&msg.encode()), Ok(msg), "worker message");
    }
    if let Ok(m) = serial::parse(doc) {
        assert_eq!(serial::parse(&serial::to_text(&m)), Ok(m), "module text");
    }
    if let Ok(log) = parse_sealed(doc) {
        let text: String = log.records.iter().map(|r| seal_line(r) + "\n").collect();
        let records = log.records;
        assert_eq!(
            parse_sealed(&text),
            Ok(SealedLog {
                records,
                truncated: false
            }),
            "journal"
        );
    }
}

/// Count `doc` in `counts` if it parses as JSON, as module text, and as
/// a journal with at least one intact record.
fn tally(counts: &mut [usize; 3], doc: &str) {
    counts[0] += usize::from(parse_json(doc).is_ok());
    counts[1] += usize::from(serial::parse(doc).is_ok());
    counts[2] += usize::from(parse_sealed(doc).is_ok_and(|log| !log.records.is_empty()));
}

/// Check every seed document, then `mutants` seeded mutants (a mutant
/// of a mutant one time in four; of the other picks, 30% take the module
/// text and the rest pick uniformly). Returns how many mutants each reader
/// accepted (see [`tally`]).
fn run_corpus(seed: u64, mutants: usize) -> [usize; 3] {
    let docs = seed_documents();
    let mut seeds = [0; 3];
    for doc in &docs {
        check(doc);
        tally(&mut seeds, doc);
    }
    assert_eq!(seeds, [docs.len() - 2, 1, 1], "seed documents parse");
    // The module text is one seed of many and its reader the strictest,
    // so uniform picks alone leave few mutants that still parse as one.
    let module = docs
        .iter()
        .position(|d| serial::parse(d).is_ok())
        .expect("a seed is module text");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut accepted = [0; 3];
    let mut last = docs[0].clone();
    for i in 0..mutants {
        let base = if rng.chance(0.25) {
            last
        } else if rng.chance(0.3) {
            docs[module].clone()
        } else {
            docs[rng.pick(docs.len())].clone()
        };
        let m = mutate(&mut rng, &base, &docs);
        if catch_unwind(|| check(&m)).is_err() {
            let shown: String = m.chars().take(400).collect();
            panic!("mutant {i} of corpus seed {seed} broke a reader: {shown}");
        }
        tally(&mut accepted, &m);
        last = m;
    }
    accepted
}

#[test]
fn bounded_mutation_corpus_never_panics() {
    let [json, module, journal] = run_corpus(1, 3_000);
    // Some mutants must stay well-formed, or the round trips go untested.
    assert!(json > 300, "only {json} mutants parsed as JSON");
    assert!(module > 65, "only {module} mutants parsed as module text");
    assert!(journal > 40, "only {journal} mutants parsed as a journal");
}

#[test]
#[ignore = "long corpus; run in release: cargo test --release --test json_corpus -- --ignored"]
fn long_mutation_corpus_never_panics() {
    for seed in 1..=20 {
        run_corpus(seed, 50_000);
    }
}
