//! Differential oracle: sharded profiling against serial, and the batched
//! observe path against the scalar loop.
//!
//! Over real workload traces and adversarial synthetic streams, entity
//! sharding (`pc % shards`) of the full profiler is *bit-identical* to a
//! serial pass: metrics and telemetry event counters must be exactly
//! equal for shards ∈ {1, 2, 7}. The full profiler is the only one that
//! merges.
//!
//! Separately, `observe_batch` must equal an `observe` loop *exactly* on
//! every layer it short-circuits: the product's TNV table (on streams
//! that straddle clear boundaries), the value tracker, and the
//! instruction profiler.
//!
//! Finally, the engine oracle: for every `ProfileMode`, one workload's
//! value stream profiles identically through live instrumentation, serial
//! `observe_batch`, and a streamed session of an in-process serve daemon; and every suite workload profiles identically
//! live and from a replay of its VPC1 trace (`vprof replay`'s path). Live
//! profiling hands the profilers program-order blocks of values; in every
//! mode, governed full profiling included, and for E7's flat samplers,
//! that profiles exactly like one `observe` per executed instruction,
//! also when the instruction budget cuts the run short. The convergent
//! profilers gate live runs (the runner drops their skipped executions),
//! and still count every offered execution as profiled or skipped.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use value_profiling::core::{
    durable, profile_sharded, tnv::FixedTnv, track::TrackerConfig, InstructionProfiler, MemBudget,
    PhaseBudget, ProfileMode, Profiler, ProfilerStats, SampleStrategy, SampledProfiler,
    ValueTracker,
};
use value_profiling::instrument::frame::{self, FrameReader};
use value_profiling::instrument::net::{self, SessionMsg};
use value_profiling::instrument::{trace_codec, Analysis, ChunkReader, Instrumenter, Selection};
use value_profiling::obs::Counts;
use value_profiling::sim::{InstrEvent, Machine, SimError};
use value_profiling::workloads::{suite, DataSet};
use vp_bench::serve::{serve, ServeConfig};
use vp_bench::{value_stream, BUDGET};

const SHARD_COUNTS: [usize; 3] = [1, 2, 7];

/// Recorded traces from real workloads plus synthetic adversarial streams
/// (single hot entity, clear-boundary straddlers, value collisions).
fn streams() -> Vec<(String, Vec<(u32, u64)>)> {
    let mut out: Vec<(String, Vec<(u32, u64)>)> = Vec::new();
    for w in &suite()[..3] {
        out.push((
            format!("{}/loads", w.name()),
            value_stream(w, DataSet::Test, Selection::LoadsOnly),
        ));
    }
    out.push((
        "suite0/all".to_string(),
        value_stream(&suite()[0], DataSet::Train, Selection::RegisterDefining),
    ));
    // One entity dominating: entity sharding cannot balance this, but it
    // must still be exact.
    out.push(("hot-entity".to_string(), (0..4000u64).map(|i| (3, i % 5)).collect()));
    // Many entities with colliding values and a long invariant tail.
    out.push((
        "mixed".to_string(),
        (0..20_000u64)
            .map(|i| {
                let pc = (i * 7 % 23) as u32;
                let value = if i % 3 == 0 { 42 } else { i % 11 };
                (pc, value)
            })
            .collect(),
    ));
    out.push(("empty".to_string(), Vec::new()));
    out
}

#[test]
fn entity_sharded_full_profiler_is_bit_identical_to_serial() {
    for (name, events) in streams() {
        let mut serial = InstructionProfiler::new(TrackerConfig::with_full());
        serial.observe_batch(&events);
        for shards in SHARD_COUNTS {
            let sharded = profile_sharded(&events, shards, || {
                InstructionProfiler::new(TrackerConfig::with_full())
            });
            assert_eq!(sharded.metrics(), serial.metrics(), "{name} shards={shards}");
            assert_eq!(sharded.tnv_events(), serial.tnv_events(), "{name} shards={shards}");
        }
    }
}

/// Value streams that exercise the TNV fast path and every way out of it:
/// top-slot runs, churn, collisions, and clear-boundary straddles.
fn value_streams() -> Vec<(String, Vec<u64>)> {
    let mut out = vec![
        ("empty".to_string(), Vec::new()),
        ("constant".to_string(), vec![7; 5000]),
        ("alternating".to_string(), (0..5000).map(|i| u64::from(i % 2 == 0)).collect()),
        ("counter".to_string(), (0..5000).collect()),
        ("runs".to_string(), (0..5000).map(|i| i / 97).collect()),
        ("skewed".to_string(), (0..5000u64).map(|i| if i % 5 == 4 { i % 23 } else { 9 }).collect()),
    ];
    for (_, events) in streams() {
        if let Some(&(pc, _)) = events.first() {
            let values =
                events.iter().filter(|&&(p, _)| p == pc).map(|&(_, v)| v).collect::<Vec<u64>>();
            out.push((format!("trace-pc{pc}"), values));
        }
    }
    out
}

#[test]
fn tnv_observe_batch_equals_observe_loop_exactly() {
    // The streams run 5000 values, so they cross two clears (every 2000
    // observations); batches of 1999, 2000 and 2001 put a clear at, just
    // inside and just past a batch end. The fast path must take none of
    // the boundary observations.
    for (name, values) in value_streams() {
        let mut scalar = FixedTnv::new();
        for &v in &values {
            scalar.observe(v);
        }
        for batch in [1usize, 3, 64, 1999, 2000, 2001, values.len().max(1)] {
            let mut batched = FixedTnv::new();
            for chunk in values.chunks(batch) {
                batched.observe_batch(chunk);
            }
            assert_eq!(batched, scalar, "{name} batch={batch}");
            assert_eq!(batched.observations(), scalar.observations(), "{name} batch={batch}");
        }
    }
}

#[test]
fn tracker_observe_batch_equals_observe_loop_exactly() {
    for config in [TrackerConfig::default(), TrackerConfig::with_full()] {
        for (name, values) in value_streams() {
            let mut scalar = ValueTracker::new(config);
            for &v in &values {
                scalar.observe(v);
            }
            for batch in [1usize, 7, 1024] {
                let mut batched = ValueTracker::new(config);
                for chunk in values.chunks(batch) {
                    batched.observe_batch(chunk);
                }
                let at = format!("{name} batch={batch}");
                assert_eq!(batched.executions(), scalar.executions(), "{at}");
                assert_eq!(batched.lvp(), scalar.lvp(), "{at}");
                assert_eq!(batched.pct_zero(), scalar.pct_zero(), "{at}");
                assert_eq!(batched.last_value(), scalar.last_value(), "{at}");
                assert_eq!(batched.tnv(), scalar.tnv(), "{at}");
                assert_eq!(batched.inv_all(1), scalar.inv_all(1), "{at}");
                assert_eq!(batched.distinct(), scalar.distinct(), "{at}");
            }
        }
    }
}

#[test]
fn profiler_observe_batch_equals_observe_loop_exactly() {
    for (name, events) in streams() {
        let mut scalar = InstructionProfiler::new(TrackerConfig::with_full());
        for &(pc, value) in &events {
            scalar.observe(pc, value);
        }
        for batch in [1usize, 5, 333, events.len().max(1)] {
            let mut batched = InstructionProfiler::new(TrackerConfig::with_full());
            for chunk in events.chunks(batch) {
                batched.observe_batch(chunk);
            }
            assert_eq!(batched.metrics(), scalar.metrics(), "{name} batch={batch}");
            assert_eq!(batched.tnv_events(), scalar.tnv_events(), "{name} batch={batch}");
        }
    }
}

/// Streams a VPC1 trace's chunks as one session into an in-process serve
/// daemon running `mode` and returns the profile TSV its `END_OK` carries.
fn serve_session(mode: ProfileMode, trace: &[u8]) -> String {
    let dir = std::env::temp_dir().join(format!("vp-engine-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket: PathBuf = dir.join("serve.sock");
    let mut cfg = ServeConfig::new(socket.clone(), dir.join("state"));
    cfg.mode = mode;
    let daemon = std::thread::spawn(move || serve(cfg));
    // The socket file appears at `bind`, a moment before `listen`: retry
    // a refused connect until the daemon accepts.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match UnixStream::connect(&socket) {
            Ok(stream) => break stream,
            Err(e) => assert!(Instant::now() < deadline, "{}: {e}", socket.display()),
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    frame::write_magic(&mut stream).unwrap();
    let hello = SessionMsg::Hello { tenant: "oracle".to_string(), workload: "li".to_string() };
    net::write_msg(&mut stream, &hello).unwrap();
    reader.expect_magic().unwrap();
    assert!(matches!(net::read_msg(&mut reader), Ok(SessionMsg::HelloOk { acked: 0 })));
    for (seq, chunk) in trace_codec::raw_chunks(trace).unwrap().into_iter().enumerate() {
        let msg = SessionMsg::Chunk {
            seq: seq as u64,
            count: chunk.count,
            crc: chunk.crc,
            payload: chunk.payload.to_vec(),
        };
        net::write_msg(&mut stream, &msg).unwrap();
    }
    net::write_msg(&mut stream, &SessionMsg::End).unwrap();
    let profile = loop {
        match net::read_msg(&mut reader).unwrap() {
            SessionMsg::EndOk { profile, .. } => break profile,
            SessionMsg::Ack { .. } => {}
            other => panic!("{mode:?}: unexpected reply {other:?}"),
        }
    };
    let mut down = UnixStream::connect(&socket).unwrap();
    frame::write_magic(&mut down).unwrap();
    net::write_msg(&mut down, &SessionMsg::Shutdown).unwrap();
    daemon.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    profile
}

/// Every `ProfileMode`, with parameters small enough that every
/// workload exercises re-arming.
fn modes() -> [ProfileMode; 3] {
    [
        ProfileMode::Full,
        ProfileMode::Convergent,
        ProfileMode::Adaptive(PhaseBudget { max_rearms: 8, window: 512 }),
    ]
}

/// Asserts that `p` and `live` agree on metrics, profile fraction,
/// profiler stats (governor or phase) and telemetry event counts.
fn assert_same_profile(p: &Profiler, live: &Profiler, at: &str) {
    assert_eq!(p.metrics(), live.metrics(), "{at}");
    assert_eq!(p.profile_fraction(), live.profile_fraction(), "{at}");
    assert_eq!(p.stats(), live.stats(), "{at}");
    let (mut mine, mut theirs) = (Counts::new(), Counts::new());
    p.add_events_to(&mut mine);
    live.add_events_to(&mut theirs);
    assert_eq!(mine, theirs, "{at}");
}

#[test]
fn every_mode_profiles_identically_through_every_engine_path() {
    let w = &suite()[1];
    let instrumenter = Instrumenter::new().select(Selection::LoadsOnly);
    let events = value_stream(w, DataSet::Test, Selection::LoadsOnly);
    let trace = trace_codec::encode(&events, 500);
    for mode in modes() {
        let build = || mode.build(None);
        let mut live = build();
        let run = live
            .run_live(&instrumenter, w.program(), w.machine_config(DataSet::Test), BUDGET)
            .unwrap();
        assert_eq!(run.counts.instr_events, events.len() as u64, "{mode:?}");
        let mut serial = build();
        serial.observe_batch(&events);
        assert_same_profile(&serial, &live, &format!("{mode:?} live vs serial"));
        assert_eq!(
            serve_session(mode, &trace),
            durable::render_profile_durable(&live.metrics()),
            "{mode:?} live vs serve session"
        );
    }
}

/// The per-event reference for live profiling: every `after_instr`
/// forwarded to an `observe` call, one instruction at a time.
struct PerEvent<F: FnMut(u32, u64)>(F);

impl<F: FnMut(u32, u64)> Analysis for PerEvent<F> {
    fn after_instr(&mut self, _m: &Machine, ev: &InstrEvent) {
        if let Some((_, value)) = ev.dest {
            (self.0)(ev.index, value);
        }
    }
}

/// A convergent profiler counts each offered register-writing execution
/// once, as profiled or as skipped, whether or not the runner delivered
/// it.
fn assert_every_offer_counted(live: &Profiler, offered: u64, at: &str) {
    if let Profiler::Convergent(p) = live {
        let ev = p.events();
        assert_eq!(ev.profiled + ev.skipped, offered, "{at}");
    }
}

#[test]
fn live_value_blocks_profile_identically_to_per_event_delivery() {
    // Every mode plus governed full profiling under a budget tight
    // enough to degrade entities, whose state depends on the global
    // event order.
    let mut cases: Vec<(ProfileMode, Option<MemBudget>)> =
        modes().into_iter().map(|mode| (mode, None)).collect();
    cases.push((ProfileMode::Full, Some(MemBudget::bytes(48 * 1024))));
    let instrumenter = Instrumenter::new().select(Selection::RegisterDefining);
    let mut degraded = 0;
    for w in &suite() {
        let cfg = || w.machine_config(DataSet::Test);
        for &(mode, budget) in &cases {
            let mut live = mode.build(budget);
            let run = live.run_live(&instrumenter, w.program(), cfg(), BUDGET).unwrap();
            let mut reference = mode.build(budget);
            let mut offered = 0;
            let mut per_event = PerEvent(|pc, value| {
                offered += 1;
                reference.observe(pc, value);
            });
            let ref_run = instrumenter.run(w.program(), cfg(), BUDGET, &mut per_event).unwrap();
            assert_eq!(run.counts, ref_run.counts, "{} {mode:?}", w.name());
            let at = format!("{} {mode:?} budget={budget:?} blocks vs per-event", w.name());
            assert_same_profile(&reference, &live, &at);
            assert_every_offer_counted(&live, offered, &at);
            if let Some(ProfilerStats::Governor(g)) = live.stats() {
                degraded += g.entities_degraded;
            }

            // Cut short by the instruction budget, mid-run: the convergent
            // profilers' skip counts are still pending in the runner, and
            // handing them back must leave the per-event profile.
            let cut = run.outcome.instructions * 5 / 8 + 3;
            let mut live = mode.build(budget);
            let err = live.run_live(&instrumenter, w.program(), cfg(), cut).unwrap_err();
            let mut reference = mode.build(budget);
            let mut offered = 0;
            let mut per_event = PerEvent(|pc, value| {
                offered += 1;
                reference.observe(pc, value);
            });
            let ref_err = instrumenter.run(w.program(), cfg(), cut, &mut per_event).unwrap_err();
            assert_eq!(err, SimError::BudgetExhausted { budget: cut });
            assert_eq!(err, ref_err);
            let at = format!("{at}, cut at {cut} instructions");
            assert_same_profile(&reference, &live, &at);
            assert_every_offer_counted(&live, offered, &at);
        }
        // E7 runs the flat samplers live outside the engine. A random
        // sampler's draws follow the global event order.
        for strategy in
            [SampleStrategy::Periodic { period: 13 }, SampleStrategy::Random { period: 7 }]
        {
            let sampler = || SampledProfiler::new(TrackerConfig::default(), strategy);
            let mut live = sampler();
            let run = instrumenter.run(w.program(), cfg(), BUDGET, &mut live).unwrap();
            let mut reference = sampler();
            let mut per_event = PerEvent(|pc, value| reference.observe(pc, value));
            let ref_run = instrumenter.run(w.program(), cfg(), BUDGET, &mut per_event).unwrap();
            let at = format!("{} {strategy:?} blocks vs per-event", w.name());
            assert_eq!(run.counts, ref_run.counts, "{at}");
            assert_eq!(reference.metrics(), live.metrics(), "{at}");
            assert_eq!(
                reference.overall_profile_fraction(),
                live.overall_profile_fraction(),
                "{at}"
            );
        }
    }
    assert!(degraded > 0, "the tight budget must degrade entities");
}

#[test]
fn replayed_instruction_profiles_match_live() {
    let instrumenter = Instrumenter::new().select(Selection::LoadsOnly);
    for w in &suite() {
        let events = value_stream(w, DataSet::Test, Selection::LoadsOnly);
        // What `vprof record` writes, in small chunks so every replay
        // crosses many chunk boundaries.
        let trace = trace_codec::encode(&events, 500);
        for mode in modes() {
            let mut live = mode.build(None);
            live.run_live(&instrumenter, w.program(), w.machine_config(DataSet::Test), BUDGET)
                .unwrap();
            let mut reader = ChunkReader::new(&trace).unwrap();
            let replayed = mode.profile_trace(None, &mut reader).unwrap();
            let at = format!("{} {mode:?} live vs replay", w.name());
            assert_same_profile(&replayed, &live, &at);
        }
    }
}
