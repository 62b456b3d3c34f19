//! Degraded-mode overhead: what fault tolerance costs.
//!
//! Runs each scenario on the timed backend and compares modeled times
//! against the plain (non-hardened) pipeline on the same graph:
//!
//! * `hardened` — checksummed staging + verified gathers, no faults:
//!   the steady-state price of end-to-end integrity checking.
//! * `transients` — seeded transient transfer/corruption/launch faults:
//!   adds the retry/backoff spans.
//! * `degraded` — the same transients plus two permanent core deaths
//!   failed over onto spares: adds reconstruction and pipeline restart.
//!
//! Every scenario must return the exact fault-free triangle count — the
//! recovery guarantee (see docs/ROBUSTNESS.md) — so the only thing that
//! is allowed to change is time. Compare against the plain rows of
//! `results/bench_baseline.json`.

use pim_bench::{fmt_secs, pim_config, Harness, MdTable};
use pim_graph::datasets::DatasetId;
use pim_sim::{FaultPlan, PimConfig};
use pim_tc::TcConfig;
use serde::Serialize;

const COLORS: u32 = 11; // 286 partitions — the C=23/2556-core shape scaled down
const SPARES: u32 = 2;
const TRANSIENTS: &str = "seed=7,transfer=20000,corrupt=10000,launch=10000";
const DEGRADED: &str = "seed=7,transfer=20000,corrupt=10000,launch=10000,kill=3@4,kill=120@8";
/// A small/medium/large spread keeps the 4-scenario sweep affordable.
const GRAPHS: [DatasetId; 3] = [
    DatasetId::KroneckerSmall,
    DatasetId::Roads,
    DatasetId::SocialModerate,
];

#[derive(Serialize)]
struct Row {
    graph: &'static str,
    scenario: &'static str,
    triangles: u64,
    exact: bool,
    sample_secs: f64,
    count_secs: f64,
    total_secs: f64,
    slowdown_vs_plain: f64,
}

fn with_faults(base: &TcConfig, spec: &str) -> TcConfig {
    TcConfig {
        spare_dpus: SPARES,
        pim: PimConfig {
            fault: Some(FaultPlan::parse(spec).unwrap()),
            ..base.pim
        },
        ..*base
    }
}

fn scenario_config(base: &TcConfig, scenario: &'static str) -> TcConfig {
    match scenario {
        "plain" => *base,
        "hardened" => TcConfig {
            hardened: true,
            ..*base
        },
        "transients" => with_faults(base, TRANSIENTS),
        "degraded" => with_faults(base, DEGRADED),
        other => unreachable!("unknown scenario {other}"),
    }
}

fn main() {
    let harness = Harness::from_env();
    let mut rows: Vec<Row> = Vec::new();
    let mut table = MdTable::new(["Graph", "Scenario", "Sample", "Count", "Total", "Slowdown"]);
    for id in GRAPHS {
        let g = harness.dataset(id);
        let base = pim_config(COLORS, &g).build().unwrap();
        let mut plain_total = 0.0;
        let mut plain_triangles = 0;
        for scenario in ["plain", "hardened", "transients", "degraded"] {
            let config = scenario_config(&base, scenario);
            let r = pim_tc::count_triangles(&g, &config).unwrap();
            let total = r.times.sample_creation + r.times.triangle_count;
            if scenario == "plain" {
                plain_total = total;
                plain_triangles = r.rounded();
            } else {
                assert_eq!(
                    r.rounded(),
                    plain_triangles,
                    "{} {scenario}: recovery must preserve the exact count",
                    id.name()
                );
            }
            let slowdown = total / plain_total;
            eprintln!(
                "[robustness] {} {scenario}: {} ({:.2}x)",
                id.name(),
                fmt_secs(total),
                slowdown
            );
            table.row([
                id.name().to_string(),
                scenario.to_string(),
                fmt_secs(r.times.sample_creation),
                fmt_secs(r.times.triangle_count),
                fmt_secs(total),
                format!("{slowdown:.2}x"),
            ]);
            rows.push(Row {
                graph: id.name(),
                scenario,
                triangles: r.rounded(),
                exact: r.exact,
                sample_secs: r.times.sample_creation,
                count_secs: r.times.triangle_count,
                total_secs: total,
                slowdown_vs_plain: slowdown,
            });
        }
    }
    let md = format!(
        "# Degraded-mode overhead (C = {COLORS}, {SPARES} spares)\n\n\
         Modeled sample-creation + count time per scenario, relative to the\n\
         plain pipeline. Scenarios: `hardened` = checksums + verified\n\
         gathers, no faults; `transients` = `{TRANSIENTS}`;\n\
         `degraded` = the same plus two core deaths failed over onto\n\
         spares (`{DEGRADED}`). Every scenario returns the exact\n\
         fault-free triangle count (asserted). See docs/ROBUSTNESS.md.\n\n{}",
        table.render()
    );
    println!("{md}");
    harness.save("robustness_degraded", &md, &rows);
}
