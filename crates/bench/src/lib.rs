#![warn(missing_docs)]

//! `pim-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md §6
//! for the index), sharing the helpers in this library: dataset loading,
//! PIM configuration sizing, result persistence, and markdown tables.
//!
//! Binaries honor two environment variables:
//!
//! * `PIM_TC_PROFILE` — `paper` (default) or `test` (tiny graphs, for
//!   smoke-testing the harness itself),
//! * `PIM_TC_RESULTS` — output directory (default `results/`).
//!
//! Passing `--profile` on a binary's command line additionally writes
//! per-run observability captures (`results/<name>.profile.json`: the
//! labeled trace, Chrome export, and per-DPU report — see
//! `docs/OBSERVABILITY.md`) for experiments that support it.

pub mod gate;
pub mod routing;

use pim_graph::datasets::{DatasetId, Profile};
use pim_graph::{stats, CooGraph};
use pim_sim::PimConfig;
use pim_tc::kernel::layout::HEADER_BYTES;
use pim_tc::{TcConfig, TcConfigBuilder};
use serde::Serialize;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Experiment context: size profile and results directory.
pub struct Harness {
    /// Dataset size profile.
    pub profile: Profile,
    /// Where result files are written.
    pub results_dir: PathBuf,
    /// Whether to emit per-run observability captures (`--profile`).
    pub emit_profile: bool,
}

impl Harness {
    /// Builds the harness from the environment and the process arguments
    /// (see crate docs).
    pub fn from_env() -> Harness {
        let profile = match std::env::var("PIM_TC_PROFILE").as_deref() {
            Ok("test") => Profile::Test,
            _ => Profile::Paper,
        };
        let results_dir = std::env::var("PIM_TC_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        let emit_profile = std::env::args().any(|a| a == "--profile");
        Harness {
            profile,
            results_dir,
            emit_profile,
        }
    }

    /// Loads (generates + preprocesses) a dataset at the active profile.
    pub fn dataset(&self, id: DatasetId) -> CooGraph {
        id.build(self.profile)
    }

    /// Datasets ordered by maximum degree ascending (the Fig. 3 x-axis).
    pub fn datasets_by_max_degree(&self) -> Vec<(DatasetId, CooGraph, stats::GraphStats)> {
        let mut rows: Vec<(DatasetId, CooGraph, stats::GraphStats)> = DatasetId::ALL
            .iter()
            .map(|&id| {
                let g = self.dataset(id);
                let s = stats::graph_stats(&g);
                (id, g, s)
            })
            .collect();
        rows.sort_by_key(|(_, _, s)| s.max_degree);
        rows
    }

    /// Persists an experiment's markdown rendering and JSON record.
    pub fn save<T: Serialize>(&self, name: &str, markdown: &str, record: &T) {
        std::fs::create_dir_all(&self.results_dir).expect("create results dir");
        let md_path = self.results_dir.join(format!("{name}.md"));
        std::fs::write(&md_path, markdown).expect("write markdown");
        let json_path = self.results_dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(record).expect("serialize record");
        std::fs::write(&json_path, json).expect("write json");
        eprintln!("[saved {} and {}]", md_path.display(), json_path.display());
    }

    /// Persists one run's observability capture next to the experiment's
    /// results as `<name>.profile.json`: the [`pim_tc::RunProfile`]
    /// (result + per-DPU reports) plus the ready-to-load Chrome export of
    /// the run's metric `events` under the `"chrome_trace"` key. No-op
    /// unless `--profile` was passed.
    pub fn save_profile(
        &self,
        name: &str,
        profile: &pim_tc::RunProfile,
        events: &[pim_metrics::Event],
    ) {
        if !self.emit_profile {
            return;
        }
        std::fs::create_dir_all(&self.results_dir).expect("create results dir");
        let record = serde_json::Value::Object(vec![
            (
                "run".to_string(),
                serde_json::to_value(profile).expect("serialize profile"),
            ),
            ("chrome_trace".to_string(), pim_sim::chrome_trace(events)),
        ]);
        let path = self.results_dir.join(format!("{name}.profile.json"));
        let json = serde_json::to_string_pretty(&record).expect("serialize profile");
        std::fs::write(&path, json).expect("write profile json");
        eprintln!("[saved {}]", path.display());
    }
}

/// Builds a [`TcConfig`] for an exact experiment run, sizing each core's
/// sample from the *actual* maximum per-core load (a cheap host-side
/// routing pre-pass). The expected-max formula `6|E|/C²` can be exceeded
/// on structured graphs (lattices concentrate color pairs; hubs weight
/// colors by degree), so exact runs plan capacity from ground truth —
/// which also keeps the bank layout compact and bounds simulator memory
/// (bank vectors grow to their high-water mark).
pub fn pim_config(colors: u32, graph: &CooGraph) -> TcConfigBuilder {
    let seed = TcConfig::builder().build().unwrap().seed; // the default seed
    let max_load = pim_tc::host::dpu_loads(graph.edges(), colors, seed)
        .into_iter()
        .max()
        .unwrap_or(0);
    let capacity = (max_load + 64).min(bank_max_capacity(PimConfig::default(), 2048, 512));
    TcConfig::builder()
        .colors(colors)
        .sample_capacity(capacity.max(3))
        .stage_edges(2048)
}

/// Like [`pim_config`] but for runs that override the master seed: the
/// coloring (and hence the per-core loads) depends on it, so capacity is
/// planned under the same seed the run will use.
pub fn pim_config_seeded(colors: u32, graph: &CooGraph, seed: u64) -> TcConfigBuilder {
    let max_load = pim_tc::host::dpu_loads(graph.edges(), colors, seed)
        .into_iter()
        .max()
        .unwrap_or(0);
    let capacity = (max_load + 64).min(bank_max_capacity(PimConfig::default(), 2048, 512));
    TcConfig::builder()
        .colors(colors)
        .seed(seed)
        .sample_capacity(capacity.max(3))
        .stage_edges(2048)
}

/// Maximum sample capacity a bank supports with the given staging/remap
/// reservations (mirrors `MramLayout::compute`).
pub fn bank_max_capacity(pim: PimConfig, stage_edges: u64, remap_cap: u64) -> u64 {
    let fixed = HEADER_BYTES + stage_edges * 8 + remap_cap * 8;
    (pim.mram_capacity.saturating_sub(fixed) / 8).saturating_sub(1) / 3
}

/// A minimal markdown table builder for experiment output.
pub struct MdTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MdTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> MdTable {
        MdTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders GitHub-flavored markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Formats seconds for display (ms below 1 s).
pub fn fmt_secs(s: f64) -> String {
    if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Formats a relative error as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.3}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn md_table_renders() {
        let mut t = MdTable::new(["a", "b"]);
        t.row(["1", "2"]).row(["3", "4"]);
        let md = t.render();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 3 | 4 |"));
        assert_eq!(md.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn md_table_rejects_ragged_rows() {
        MdTable::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn config_sizing_covers_the_true_max_load() {
        let g = pim_graph::gen::erdos_renyi(500, 0.1, 3);
        let c = pim_config(4, &g).build().unwrap();
        let max = bank_max_capacity(PimConfig::default(), 2048, 512);
        assert!(c.sample_capacity.unwrap() <= max);
        let loads = pim_tc::host::dpu_loads(g.edges(), 4, c.seed);
        assert!(c.sample_capacity.unwrap() >= *loads.iter().max().unwrap());
        // An exact run under this config must never overflow.
        let r = pim_tc::count_triangles(&g, &c).unwrap();
        assert!(r.exact);
    }

    #[test]
    fn save_profile_writes_chrome_trace_when_enabled() {
        let dir = std::env::temp_dir().join("pim_bench_profile_test");
        let _ = std::fs::remove_dir_all(&dir);
        let g = pim_graph::gen::erdos_renyi(60, 0.2, 5);
        let config = pim_config(2, &g).build().unwrap();
        let hub = std::sync::Arc::new(pim_metrics::MetricsHub::new());
        let sink = pim_metrics::MemorySink::new();
        hub.add_sink(Box::new(sink.clone()));
        let capture = pim_tc::Capture { metrics: Some(hub) };
        let profile = pim_tc::count_triangles_with(&g, &config, capture).unwrap();
        let events = sink.events();

        let harness = Harness {
            profile: Profile::Test,
            results_dir: dir.clone(),
            emit_profile: false,
        };
        harness.save_profile("smoke", &profile, &events);
        assert!(
            !dir.join("smoke.profile.json").exists(),
            "disabled => no file"
        );

        let harness = Harness {
            emit_profile: true,
            ..harness
        };
        harness.save_profile("smoke", &profile, &events);
        let text = std::fs::read_to_string(dir.join("smoke.profile.json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert!(v.get("run").is_some());
        let chrome = v.get("chrome_trace").unwrap().get("traceEvents").unwrap();
        assert!(chrome
            .as_array()
            .unwrap()
            .iter()
            .any(|e| { e.get("name").and_then(|n| n.as_str()) == Some("kernel:count") }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.0015), "1.50 ms");
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_pct(0.0123), "1.230%");
    }
}
