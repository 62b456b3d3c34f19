//! Cross-crate observability checks: the chrome trace export round-trips
//! through JSON with retry/kernel spans on the expected phase tracks, and
//! the live metric stream reconciles with the dynamic workload's report
//! on both execution backends.

use pim_baselines::dynamic::{pim_dynamic_with, DynamicRun};
use pim_graph::gen;
use pim_metrics::{
    lint_prometheus, summarize, HealthSink, HealthState, MemorySink, MetricsHub, MetricsServer,
    Watchdog, WatchdogConfig,
};
use pim_sim::{FaultPlan, PimConfig};
use pim_tc::{Capture, ExecBackend, TcConfig};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A capture streaming onto `hub`.
fn metered(hub: &Arc<MetricsHub>) -> Capture {
    Capture {
        metrics: Some(Arc::clone(hub)),
    }
}

fn faulted_config() -> TcConfig {
    TcConfig::builder()
        .colors(2)
        .pim(PimConfig {
            total_dpus: 512,
            mram_capacity: 1 << 20,
            ..PimConfig::tiny()
        })
        .stage_edges(256)
        .max_retries(16)
        .fault_plan(Some(FaultPlan::parse("seed=9,transfer=60000").unwrap()))
        .build()
        .unwrap()
}

/// Chrome trace tracks: tid 0 = Setup, 1 = SampleCreation,
/// 2 = TriangleCount (`PHASE_TRACKS` in `pim-sim`'s chrome module).
const SAMPLE_CREATION_TID: u64 = 1;
const TRIANGLE_COUNT_TID: u64 = 2;

#[test]
fn chrome_trace_round_trips_with_retry_and_kernel_spans_on_their_tracks() {
    let g = gen::erdos_renyi(150, 0.1, 3);
    let mut config = faulted_config();
    // This test is about the trace export; only the timed backend bills
    // span durations, so pin it regardless of PIM_TC_BACKEND. Pin a
    // single rank too (regardless of PIM_TC_RANKS): the span total below
    // is one machine's clock, while a cluster's phase times are the max
    // over its ranks.
    config.backend = ExecBackend::Timed;
    config.ranks = 1;
    let hub = Arc::new(MetricsHub::new());
    let sink = MemorySink::new();
    hub.add_sink(Box::new(sink.clone()));
    let profile = pim_tc::count_triangles_with(&g, &config, metered(&hub)).unwrap();
    assert!(
        profile.report.fault_counters.transfer_faults > 0,
        "the plan must actually fire for this test to mean anything"
    );

    // Round trip: export -> serialize -> parse back -> identical value.
    let chrome = pim_sim::chrome_trace(&sink.events());
    let text = serde_json::to_string(&chrome).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        parsed, chrome,
        "chrome export must survive a JSON round trip"
    );

    let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
    let spans_named = |prefix: &str| -> Vec<&serde_json::Value> {
        events
            .iter()
            .filter(|e| {
                e.get("name")
                    .and_then(|n| n.as_str())
                    .is_some_and(|n| n.starts_with(prefix))
            })
            .collect()
    };

    // Injected transfer faults surface as instants, and their recoveries
    // as `host:retry:<op>` spans.
    assert!(!spans_named("fault:transfer_fail").is_empty());
    let retries = spans_named("host:retry:");
    assert_eq!(
        retries.len() as u64,
        profile.report.fault_counters.transfer_faults,
        "one retry span per injected transfer fault"
    );

    // Kernel spans sit on the track of the phase that paid for them:
    // `receive` during sample creation, `count` during triangle counting.
    let tid_of = |e: &serde_json::Value| e.get("tid").and_then(|t| t.as_u64()).unwrap();
    let receive = spans_named("kernel:receive");
    assert!(!receive.is_empty());
    for e in &receive {
        assert_eq!(
            tid_of(e),
            SAMPLE_CREATION_TID,
            "receive runs in sample creation"
        );
    }
    let count = spans_named("kernel:count");
    assert!(!count.is_empty());
    for e in &count {
        assert_eq!(
            tid_of(e),
            TRIANGLE_COUNT_TID,
            "count runs in triangle count"
        );
    }

    // The timeline still closes: summed span durations equal the phase
    // clock (faulted attempts charge their wasted time too).
    let span_dur_us: f64 = events
        .iter()
        .filter_map(|e| e.get("dur").and_then(|d| d.as_f64()))
        .sum();
    let total = profile.result.times.total();
    assert!(
        (span_dur_us / 1e6 - total).abs() < 1e-9,
        "chrome spans {span_dur_us} us vs phase total {total} s"
    );
}

#[test]
fn dynamic_metric_stream_reconciles_with_the_report_on_both_backends() {
    let g = gen::erdos_renyi(150, 0.1, 5);
    let batches = g.split_batches(4);
    for backend in [ExecBackend::Timed, ExecBackend::Functional] {
        let mut config = TcConfig::builder()
            .colors(2)
            .pim(PimConfig {
                total_dpus: 512,
                mram_capacity: 1 << 20,
                ..PimConfig::tiny()
            })
            .stage_edges(256)
            .build()
            .unwrap();
        config.backend = backend;
        let hub = Arc::new(MetricsHub::new());
        let sink = MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        let run = DynamicRun {
            capture: metered(&hub),
            ..DynamicRun::default()
        };
        let (timings, report) = pim_dynamic_with(&batches, &config, run).unwrap();
        assert_eq!(timings.len(), 4);

        let events = sink.events();
        // Sequence numbers are strictly increasing from 1.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64 + 1, "{backend:?}: dense monotonic seq");
        }
        let s = summarize(&events);
        assert_eq!(s.chunks, 4, "{backend:?}: one chunk event per update");
        assert_eq!(
            s.transfer_bytes(),
            report.total_transfer_bytes,
            "{backend:?}"
        );
        assert_eq!(s.instructions(), report.total_instructions, "{backend:?}");
        assert_eq!(s.dma_bytes(), report.total_dma_bytes, "{backend:?}");
        match backend {
            ExecBackend::Timed => assert!(s.total_seconds() > 0.0),
            ExecBackend::Functional => assert_eq!(s.total_seconds(), 0.0),
        }
    }
}

fn tiny_config(backend: ExecBackend) -> TcConfig {
    let mut config = TcConfig::builder()
        .colors(2)
        .pim(PimConfig {
            total_dpus: 512,
            mram_capacity: 1 << 20,
            ..PimConfig::tiny()
        })
        .stage_edges(256)
        .build()
        .unwrap();
    config.backend = backend;
    config.ranks = 1;
    config
}

/// The report and the metric stream are two folds of the same settled
/// operation records, so they agree on every clock, at every rank
/// count: per kernel label the report's launches, failed
/// launches and summed slowest-DPU cycles equal the stream's; per
/// (label, phase) its worst p50/p99/imbalance equal the worst `hist`
/// event's; its fault counters equal the stream's fault tallies; and the
/// cluster-wide kernels are the sum of the per-rank ones.
#[test]
fn report_kernels_and_faults_fold_like_the_metric_stream() {
    let g = gen::erdos_renyi(150, 0.1, 7);
    for backend in [ExecBackend::Timed, ExecBackend::Functional] {
        for ranks in [1, 2, 4] {
            let mut config = faulted_config();
            let plan = "seed=9,transfer=60000,corrupt=30000,launch=60000,kill=1@6";
            config.pim.fault = Some(FaultPlan::parse(plan).unwrap());
            config.spare_dpus = 2;
            config.backend = backend;
            config.ranks = ranks;
            let run = format!("{backend:?} R={ranks}");
            let hub = Arc::new(MetricsHub::new());
            let sink = MemorySink::new();
            hub.add_sink(Box::new(sink.clone()));
            let profile = pim_tc::count_triangles_with(&g, &config, metered(&hub)).unwrap();
            let events = sink.events();
            let s = summarize(&events);
            let report = &profile.report;

            let mut by_label: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
            for k in &report.kernels {
                let e = by_label.entry(&k.label).or_default();
                *e = (e.0 + k.launches, e.1 + k.failed, e.2 + k.max_cycles);
            }
            let stream: BTreeMap<&str, (u64, u64, u64)> = s
                .launches
                .iter()
                .map(|(l, a)| (l.as_str(), (a.launches, a.failed, a.max_cycles_total)))
                .collect();
            assert_eq!(by_label, stream, "{run}");
            assert!(by_label.contains_key("count"), "{run}");

            for k in &report.kernels {
                let hists: Vec<_> = events
                    .iter()
                    .filter(|e| e.kind == "hist" && e.str_field("label") == k.label)
                    .filter(|e| e.str_field("phase") == k.phase.metric_name())
                    .collect();
                if hists.is_empty() {
                    continue;
                }
                let worst = |f: &str| hists.iter().map(|e| e.u64_field(f)).max().unwrap();
                assert_eq!(k.p50_cycles, worst("p50_cycles"), "{run} {}", k.label);
                assert_eq!(k.p99_cycles, worst("p99_cycles"), "{run} {}", k.label);
                let imbalance = hists
                    .iter()
                    .map(|e| e.f64_field("imbalance"))
                    .fold(1.0, f64::max);
                assert_eq!(k.imbalance, imbalance, "{run} {}", k.label);
            }

            let tally = |kind: &str| s.faults.get(kind).copied().unwrap_or(0);
            let fc = &report.fault_counters;
            assert_eq!(fc.transfer_faults, tally("transfer_fail"), "{run}");
            assert_eq!(fc.corruptions, tally("corrupt"), "{run}");
            assert_eq!(fc.launch_faults, tally("launch_fail"), "{run}");
            assert_eq!(fc.dpu_deaths, tally("kill"), "{run}");
            assert_eq!(fc.rank_deaths, tally("rank_dead"), "{run}");
            assert!(fc.total() > 0, "{run}: the plan must fire");

            let mut rank_sum: BTreeMap<(String, &str), (u64, u64)> = BTreeMap::new();
            for k in profile.per_rank.iter().flat_map(|r| &r.kernels) {
                let e = rank_sum
                    .entry((k.label.clone(), k.phase.metric_name()))
                    .or_default();
                *e = (e.0 + k.launches, e.1 + k.max_cycles);
            }
            let total: BTreeMap<(String, &str), (u64, u64)> = report
                .kernels
                .iter()
                .map(|k| {
                    let key = (k.label.clone(), k.phase.metric_name());
                    (key, (k.launches, k.max_cycles))
                })
                .collect();
            assert_eq!(total, rank_sum, "{run}");
        }
    }
}

/// Minimal HTTP/1.1 GET against the in-process exporter; the server
/// closes the connection after each response.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Sums every sample of an (optionally labeled) counter family in a
/// Prometheus exposition.
fn scrape_counter_total(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .map(|v| v as u64)
        .sum()
}

/// A live `/metrics` scrape taken at any point during the run must be
/// parseable Prometheus text whose counters never exceed — and at the end
/// exactly equal — the run's own `SystemReport` totals; `/healthz` must
/// track phase and progress.
#[test]
fn live_scrape_reconciles_with_the_system_report_on_both_backends() {
    let g = gen::erdos_renyi(150, 0.1, 11);
    for backend in [ExecBackend::Timed, ExecBackend::Functional] {
        let config = tiny_config(backend);
        let hub = Arc::new(MetricsHub::new());
        let health = Arc::new(HealthState::new());
        hub.add_sink(Box::new(HealthSink::new(Arc::clone(&health))));
        let mut server =
            MetricsServer::start("127.0.0.1:0", Arc::clone(&hub), Arc::clone(&health)).unwrap();
        let addr = server.addr();

        // Concurrent scraper: every mid-run snapshot lints and its
        // transfer-bytes counter is monotone non-decreasing. The count
        // starts once the first scrape is done, so the scraper always
        // runs, however fast the count.
        let stop = Arc::new(AtomicBool::new(false));
        let (first_done, first_scrape) = std::sync::mpsc::channel();
        let scraper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last = 0u64;
                let mut scrapes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (status, body) = http_get(addr, "/metrics");
                    assert_eq!(status, 200);
                    lint_prometheus(&body).expect("mid-run scrape must lint");
                    let bytes = scrape_counter_total(&body, "pim_transfer_bytes_total");
                    assert!(bytes >= last, "counter went backwards: {bytes} < {last}");
                    last = bytes;
                    scrapes += 1;
                    if scrapes == 1 {
                        first_done.send(()).unwrap();
                    }
                }
                (last, scrapes)
            })
        };
        first_scrape.recv().expect("the scraper's first scrape");

        let profile = pim_tc::count_triangles_with(&g, &config, metered(&hub)).unwrap();
        stop.store(true, Ordering::Relaxed);
        let (mid_run_bytes, scrapes) = scraper.join().unwrap();
        assert!(scrapes > 0, "{backend:?}: the scraper must have run");

        // End-of-run scrape: counters reconcile exactly with the report.
        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        lint_prometheus(&body).unwrap();
        assert_eq!(
            scrape_counter_total(&body, "pim_transfer_bytes_total"),
            profile.report.total_transfer_bytes,
            "{backend:?}"
        );
        assert_eq!(
            scrape_counter_total(&body, "pim_instructions_total"),
            profile.report.total_instructions,
            "{backend:?}"
        );
        assert!(
            mid_run_bytes <= profile.report.total_transfer_bytes,
            "{backend:?}: a mid-run scrape can never exceed the final total"
        );

        let (status, healthz) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
        let doc: serde_json::Value = serde_json::from_str(&healthz).unwrap();
        assert_eq!(
            doc.get("phase").and_then(|v| v.as_str()),
            Some("triangle_count"),
            "{backend:?}: {healthz}"
        );
        assert!(doc.get("last_seq").and_then(|v| v.as_u64()).unwrap() > 0);
        assert!(doc.get("edges_ingested").and_then(|v| v.as_u64()).unwrap() > 0);

        server.shutdown();
    }
}

/// The watchdog raises `dpu_death` / `rank_death` on injected permanent
/// faults and stays silent on the same workload fault-free.
#[test]
fn watchdog_fires_on_injected_faults_and_stays_silent_clean() {
    let g = gen::erdos_renyi(150, 0.1, 3);
    // Headroom over this workload's natural max/p50 skew: the signal
    // under test is injected deaths, not data imbalance.
    let lenient = WatchdogConfig {
        straggler_factor: 16.0,
        ..WatchdogConfig::default()
    };

    // Clean run: no anomalies at all.
    let config = tiny_config(ExecBackend::Timed);
    let hub = Arc::new(MetricsHub::new());
    let mut dog = Watchdog::new(Arc::clone(&hub), lenient.clone());
    pim_tc::count_triangles_with(&g, &config, metered(&hub)).unwrap();
    assert!(
        dog.check().is_empty(),
        "clean run must raise nothing: {:?}",
        dog.fired()
    );

    // A covered core death fires `dpu_death` exactly once.
    let mut config = tiny_config(ExecBackend::Timed);
    config.pim.fault = Some(FaultPlan::parse("seed=3,kill=1@3").unwrap());
    config.spare_dpus = 2;
    let hub = Arc::new(MetricsHub::new());
    let mut dog = Watchdog::new(Arc::clone(&hub), lenient.clone());
    pim_tc::count_triangles_with(&g, &config, metered(&hub)).unwrap();
    let fired = dog.check();
    assert!(
        fired.iter().any(|a| a.kind == "dpu_death"),
        "got: {fired:?}"
    );

    // A whole-rank outage on a 2-rank cluster fires `rank_death`.
    let mut config = tiny_config(ExecBackend::Timed);
    config.ranks = 2;
    config.pim.fault = Some(FaultPlan::parse("seed=3,rank=1@count").unwrap());
    config.spare_dpus = 4;
    // Whole-rank recovery re-derives the lost partitions from replayable
    // RNG journals (docs/ROBUSTNESS.md).
    config.journal = true;
    let hub = Arc::new(MetricsHub::new());
    let mut dog = Watchdog::new(Arc::clone(&hub), lenient);
    pim_tc::count_triangles_with(&g, &config, metered(&hub)).unwrap();
    let fired = dog.check();
    assert!(
        fired.iter().any(|a| a.kind == "rank_death"),
        "got: {fired:?}"
    );
}
