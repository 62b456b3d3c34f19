//! The perf-regression gate: compares a fresh run against the recorded
//! baseline in `results/bench_baseline.json`.
//!
//! Both sides are baseline-shaped JSON documents (`rows[].pim_phases`,
//! the optional `fig7_dynamic` and `routing_throughput` sections). [`read`]
//! turns a document into one flat list of named [`Quantity`]s, and each
//! quantity's [`Class`] picks the band [`compare`] judges it under:
//!
//! * **Exact** — triangle counts, core counts and edges routed are fully
//!   deterministic; any difference fails the gate outright.
//! * **Counter** — deterministic counters (transfer bytes, kernel cycles,
//!   instructions, DMA bytes, the modeled GPU curve) get a tight warn/fail
//!   band, and are skipped when the baseline predates them (recorded 0).
//! * **Time** — seconds that fold in host-measured time get a loose band.
//! * **Floor** — host-measured throughput is one-sided: only a slowdown
//!   counts, under the counter band.
//!
//! Between the warn and fail thresholds a check is reported but does not
//! fail the gate. The comparison itself is pure (no PIM run needed), so
//! tampered-baseline behavior is unit-testable; the `bench_gate` binary
//! builds the observed document from a live re-run.

use serde_json::Value;
use std::fmt::Write as _;

/// Warn/fail bands for the toleranced classes, as relative deviations
/// (0.10 = 10%).
#[derive(Clone, Copy, Debug)]
pub struct Tolerances {
    /// Warn threshold for deterministic counters and throughput floors.
    pub counter_warn: f64,
    /// Fail threshold for deterministic counters and throughput floors.
    pub counter_fail: f64,
    /// Warn threshold for phase seconds (host-measured component varies
    /// by machine, so this band is generous).
    pub time_warn: f64,
    /// Fail threshold for phase seconds.
    pub time_fail: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            counter_warn: 0.02,
            counter_fail: 0.10,
            time_warn: 0.50,
            time_fail: 3.0,
        }
    }
}

/// How a quantity is judged; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Any difference fails.
    Exact,
    /// The counter band; skipped when the baseline value is 0.
    Counter,
    /// The time band.
    Time,
    /// One-sided: only a slowdown counts, under the counter band.
    Floor,
}

impl Class {
    /// The (warn, fail) thresholds on [`Class::deviation`].
    fn band(self, tol: &Tolerances) -> (f64, f64) {
        match self {
            Class::Exact => (0.0, 0.0),
            Class::Counter | Class::Floor => (tol.counter_warn, tol.counter_fail),
            Class::Time => (tol.time_warn, tol.time_fail),
        }
    }

    /// Relative deviation of `observed` from `baseline`; for a floor, the
    /// relative slowdown (0 when at or above it).
    fn deviation(self, baseline: f64, observed: f64) -> f64 {
        match self {
            Class::Floor if baseline > 0.0 => ((baseline - observed) / baseline).max(0.0),
            Class::Floor => 0.0,
            _ if baseline == 0.0 && observed == 0.0 => 0.0,
            _ if baseline == 0.0 => f64::INFINITY,
            _ => (observed - baseline).abs() / baseline,
        }
    }
}

/// One gated number of a document.
#[derive(Clone, Debug, PartialEq)]
pub struct Quantity {
    /// Dataset name (`kron-s`, …), or the section name (`fig7_dynamic`,
    /// `routing_throughput`).
    pub graph: String,
    /// What is measured (names the phase or update where there are several).
    pub metric: String,
    /// The number.
    pub value: f64,
    /// How it is judged.
    pub class: Class,
}

/// Severity of one check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within the warn band.
    Ok,
    /// Past warn, within fail.
    Warn,
    /// Past the fail threshold (or an exact metric differed).
    Fail,
}

impl Verdict {
    /// `ok` / `warn` / `fail`.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warn => "warn",
            Verdict::Fail => "fail",
        }
    }
}

/// One compared quantity.
#[derive(Clone, Debug)]
pub struct Check {
    /// Dataset name.
    pub graph: String,
    /// What was compared (names the phase for per-phase metrics).
    pub metric: String,
    /// Recorded value.
    pub baseline: f64,
    /// Fresh value; NaN when the run did not produce the quantity.
    pub observed: f64,
    /// Relative deviation |observed - baseline| / baseline; for a floor,
    /// the relative slowdown (0 at or above the floor).
    pub rel: f64,
    /// Outcome under the tolerances.
    pub verdict: Verdict,
}

/// Reads a baseline-shaped JSON document into its gated quantities, in
/// document order: per row the exact counts, the counters, the kernel
/// cycles and the phase seconds (each map in key order); then the
/// `fig7_dynamic` updates and counters; then the `routing_throughput`
/// floor. Both sections are optional. Integer fields missing from older
/// documents read as 0, which [`compare`] skips for counters.
pub fn read(text: &str) -> Result<Vec<Quantity>, String> {
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("document is not valid JSON: {e}"))?;
    let mut out = Vec::new();
    let mut push = |graph: &str, metric: String, value: f64, class: Class| {
        out.push(Quantity {
            graph: graph.to_string(),
            metric,
            value,
            class,
        })
    };
    let int = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0) as f64;
    const COUNTERS: [&str; 3] = ["transfer_bytes", "total_instructions", "total_dma_bytes"];

    let rows = doc
        .get("rows")
        .and_then(Value::as_array)
        .ok_or("document has no `rows` array")?;
    for row in rows {
        let graph = row
            .get("graph")
            .and_then(Value::as_str)
            .ok_or("row has no `graph`")?;
        let phases = row
            .get("pim_phases")
            .ok_or_else(|| format!("{graph}: row has no `pim_phases`"))?;
        let times = phases
            .get("times")
            .ok_or_else(|| format!("{graph}: row has no phase times"))?;
        push(
            graph,
            "triangles".into(),
            int(row, "triangles"),
            Class::Exact,
        );
        for key in ["nr_dpus", "edges_routed"] {
            push(graph, key.into(), int(phases, key), Class::Exact);
        }
        for key in COUNTERS {
            push(graph, key.into(), int(phases, key), Class::Counter);
        }
        let mut cycles: Vec<_> = phases
            .get("kernel_cycles")
            .and_then(Value::as_object)
            .unwrap_or_default()
            .iter()
            .collect();
        cycles.sort_by(|a, b| a.0.cmp(&b.0));
        for (phase, v) in cycles {
            let v = v.as_u64().unwrap_or(0) as f64;
            push(graph, format!("kernel_cycles[{phase}]"), v, Class::Counter);
        }
        for phase in ["sample_creation", "setup", "triangle_count"] {
            let secs = times
                .get(phase)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{graph}: row is missing `{phase}` seconds"))?;
            push(graph, format!("phase_seconds[{phase}]"), secs, Class::Time);
        }
    }

    if let Some(section) = doc.get("fig7_dynamic") {
        const GRAPH: &str = "fig7_dynamic";
        let rows = section
            .get("rows")
            .and_then(Value::as_array)
            .ok_or("fig7_dynamic section has no `rows` array")?;
        for row in rows {
            let update = row
                .get("update")
                .and_then(Value::as_u64)
                .ok_or("fig7_dynamic row has no `update`")?;
            let metric = |key: &str| format!("update[{update}].{key}");
            push(
                GRAPH,
                metric("triangles"),
                int(row, "triangles"),
                Class::Exact,
            );
            // The GPU curve is modeled, so it gets the tight band; CPU and
            // PIM seconds fold in host-measured time.
            for (key, class) in [
                ("gpu_cumulative", Class::Counter),
                ("cpu_cumulative", Class::Time),
                ("pim_cumulative", Class::Time),
            ] {
                let secs = row
                    .get(key)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("fig7_dynamic row {update} is missing `{key}`"))?;
                push(GRAPH, metric(key), secs, class);
            }
        }
        for key in COUNTERS {
            push(GRAPH, key.into(), int(section, key), Class::Counter);
        }
    }

    if let Some(section) = doc.get("routing_throughput") {
        let edges_per_sec = section
            .get("edges_per_sec")
            .and_then(Value::as_f64)
            .ok_or("routing_throughput section has no `edges_per_sec`")?;
        let (graph, metric) = ("routing_throughput", "edges_per_sec");
        push(graph, metric.into(), edges_per_sec, Class::Floor);
    }
    Ok(out)
}

/// Judges every baseline quantity against the observed quantity of the
/// same graph and metric, under the baseline's class. A quantity the run
/// did not produce fails; a counter recorded as 0 is skipped (the
/// baseline predates it).
pub fn compare(baseline: &[Quantity], observed: &[Quantity], tol: &Tolerances) -> Vec<Check> {
    baseline
        .iter()
        .filter(|b| !(b.class == Class::Counter && b.value == 0.0))
        .map(|b| {
            let found = observed
                .iter()
                .find(|o| o.graph == b.graph && o.metric == b.metric);
            let (observed, rel, verdict) = match found {
                None => (f64::NAN, f64::INFINITY, Verdict::Fail),
                Some(o) => {
                    let rel = b.class.deviation(b.value, o.value);
                    let (warn, fail) = b.class.band(tol);
                    let verdict = if rel > fail {
                        Verdict::Fail
                    } else if rel > warn {
                        Verdict::Warn
                    } else {
                        Verdict::Ok
                    };
                    (o.value, rel, verdict)
                }
            };
            Check {
                graph: b.graph.clone(),
                metric: b.metric.clone(),
                baseline: b.value,
                observed,
                rel,
                verdict,
            }
        })
        .collect()
}

/// Whether any check failed.
pub fn gate_failed(checks: &[Check]) -> bool {
    checks.iter().any(|c| c.verdict == Verdict::Fail)
}

/// Renders the verdicts: all warns and fails in full (naming graph and
/// metric), passing checks as a count.
pub fn render(checks: &[Check]) -> String {
    let mut out = String::new();
    let ok = checks.iter().filter(|c| c.verdict == Verdict::Ok).count();
    let warn = checks.iter().filter(|c| c.verdict == Verdict::Warn).count();
    let fail = checks.iter().filter(|c| c.verdict == Verdict::Fail).count();
    let _ = writeln!(
        out,
        "bench gate: {} checks — {ok} ok, {warn} warn, {fail} fail",
        checks.len()
    );
    for c in checks {
        if c.verdict == Verdict::Ok {
            continue;
        }
        let verdict = c.verdict.label().to_uppercase();
        let _ = write!(
            out,
            "  {verdict}: {} {}: baseline {:.6e}, ",
            c.graph, c.metric, c.baseline
        );
        let _ = if c.observed.is_nan() {
            writeln!(out, "missing from the run")
        } else {
            writeln!(
                out,
                "observed {:.6e} ({:+.1}%)",
                c.observed,
                (c.observed - c.baseline) / c.baseline * 100.0
            )
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_json(graph: &str) -> String {
        format!(
            r#"{{"graph": "{graph}", "triangles": 100, "pim_phases": {{
                "times": {{"setup": 0.1, "sample_creation": 0.5, "triangle_count": 0.02}},
                "nr_dpus": 2300, "edges_routed": 5000, "transfer_bytes": 40000,
                "total_instructions": 1000000, "total_dma_bytes": 5000000,
                "kernel_cycles": {{"sample_creation": 40000, "triangle_count": 7000000}}
            }}}}"#
        )
    }

    /// The quantities of a document with one fixture row per graph.
    fn rows(graphs: &[&str]) -> Vec<Quantity> {
        let rows: Vec<String> = graphs.iter().map(|g| row_json(g)).collect();
        read(&format!(r#"{{"rows": [{}]}}"#, rows.join(","))).unwrap()
    }

    /// The quantities of a document holding only a three-update
    /// `fig7_dynamic` section.
    fn fig7() -> Vec<Quantity> {
        let rows: Vec<String> = (1..=3u64)
            .map(|u| {
                let t = u as f64;
                format!(
                    r#"{{"update": {u}, "triangles": {}, "cpu_cumulative": {:?},
                        "gpu_cumulative": {:?}, "pim_cumulative": {:?}}}"#,
                    500 + u,
                    0.2 * t,
                    0.05 * t,
                    0.03 * t
                )
            })
            .collect();
        read(&format!(
            r#"{{"rows": [], "fig7_dynamic": {{"rows": [{}], "transfer_bytes": 1000000,
                "total_instructions": 90000000, "total_dma_bytes": 400000000}}}}"#,
            rows.join(",")
        ))
        .unwrap()
    }

    /// The quantities of a document holding only a routing floor.
    fn routing(edges_per_sec: f64) -> Vec<Quantity> {
        read(&format!(
            r#"{{"rows": [], "routing_throughput": {{"edges_per_sec": {edges_per_sec:?}}}}}"#
        ))
        .unwrap()
    }

    /// Sets the value of one named quantity.
    fn set(quantities: &mut [Quantity], graph: &str, metric: &str, value: f64) {
        quantities
            .iter_mut()
            .find(|q| q.graph == graph && q.metric == metric)
            .unwrap_or_else(|| panic!("no {graph} {metric}"))
            .value = value;
    }

    fn value(quantities: &[Quantity], graph: &str, metric: &str) -> f64 {
        quantities
            .iter()
            .find(|q| q.graph == graph && q.metric == metric)
            .unwrap_or_else(|| panic!("no {graph} {metric}"))
            .value
    }

    fn verdict_of(checks: &[Check], metric: &str) -> Verdict {
        checks.iter().find(|c| c.metric == metric).unwrap().verdict
    }

    #[test]
    fn identical_rows_pass_cleanly() {
        let b = rows(&["kron-s", "roads"]);
        let checks = compare(&b, &b.clone(), &Tolerances::default());
        assert_eq!(checks.len(), 22);
        assert!(!gate_failed(&checks));
        assert!(checks.iter().all(|c| c.verdict == Verdict::Ok));
    }

    #[test]
    fn tampered_baseline_fails_and_names_the_offending_phase() {
        let observed = rows(&["kron-s"]);
        let mut tampered = rows(&["kron-s"]);
        // A 10x faster recorded triangle-count phase makes the fresh run
        // look like a huge regression.
        set(
            &mut tampered,
            "kron-s",
            "phase_seconds[triangle_count]",
            0.002,
        );
        let checks = compare(&tampered, &observed, &Tolerances::default());
        assert!(gate_failed(&checks));
        let failing: Vec<_> = checks
            .iter()
            .filter(|c| c.verdict == Verdict::Fail)
            .collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].metric, "phase_seconds[triangle_count]");
        assert_eq!(failing[0].graph, "kron-s");
        let text = render(&checks);
        assert!(
            text.contains("FAIL: kron-s phase_seconds[triangle_count]"),
            "report must name the offending phase, got:\n{text}"
        );
    }

    #[test]
    fn counter_band_warns_then_fails() {
        let base = rows(&["g"]);
        let mut obs = rows(&["g"]);
        set(&mut obs, "g", "transfer_bytes", 41_500.0); // +3.75%: warn
        let checks = compare(&base, &obs, &Tolerances::default());
        assert!(!gate_failed(&checks));
        assert_eq!(verdict_of(&checks, "transfer_bytes"), Verdict::Warn);

        set(&mut obs, "g", "transfer_bytes", 50_000.0); // +25%: fail
        let checks = compare(&base, &obs, &Tolerances::default());
        assert!(gate_failed(&checks));
    }

    #[test]
    fn exact_metrics_tolerate_nothing() {
        let base = rows(&["g"]);
        let mut obs = rows(&["g"]);
        set(&mut obs, "g", "triangles", 101.0);
        let checks = compare(&base, &obs, &Tolerances::default());
        assert_eq!(verdict_of(&checks, "triangles"), Verdict::Fail);
    }

    #[test]
    fn missing_graph_and_missing_counters() {
        let base = rows(&["present", "absent"]);
        let obs = rows(&["present"]);
        // Baseline counters recorded as zero are skipped, not compared.
        let mut old = base.clone();
        set(&mut old, "present", "transfer_bytes", 0.0);
        let checks = compare(&old, &obs, &Tolerances::default());
        assert!(checks
            .iter()
            .all(|c| !(c.graph == "present" && c.metric == "transfer_bytes")));
        // Every quantity of a graph the run never produced fails.
        let checks = compare(&base, &obs, &Tolerances::default());
        let absent: Vec<_> = checks.iter().filter(|c| c.graph == "absent").collect();
        assert_eq!(absent.len(), 11);
        assert!(absent.iter().all(|c| c.verdict == Verdict::Fail));
        assert!(render(&checks).contains("FAIL: absent triangles: baseline 1.000000e2, missing"));
        // So does a single phase the run did not report.
        let partial: Vec<_> = obs
            .iter()
            .filter(|q| q.metric != "phase_seconds[setup]")
            .cloned()
            .collect();
        let checks = compare(&obs, &partial, &Tolerances::default());
        assert_eq!(verdict_of(&checks, "phase_seconds[setup]"), Verdict::Fail);
    }

    #[test]
    fn fig7_identical_sections_pass_cleanly() {
        let checks = compare(&fig7(), &fig7(), &Tolerances::default());
        assert_eq!(checks.len(), 15);
        assert!(!gate_failed(&checks));
        assert!(checks.iter().all(|c| c.verdict == Verdict::Ok));
    }

    #[test]
    fn fig7_triangle_drift_fails_exactly() {
        let base = fig7();
        let mut obs = fig7();
        set(&mut obs, "fig7_dynamic", "update[2].triangles", 503.0);
        let checks = compare(&base, &obs, &Tolerances::default());
        assert!(gate_failed(&checks));
        let c = checks.iter().find(|c| c.verdict == Verdict::Fail).unwrap();
        assert_eq!(c.metric, "update[2].triangles");
        assert_eq!(c.graph, "fig7_dynamic");
    }

    #[test]
    fn fig7_modeled_curve_gets_the_tight_band_and_host_time_the_loose_one() {
        const G: &str = "fig7_dynamic";
        let base = fig7();
        let mut obs = fig7();
        // +5% on the modeled GPU curve: past counter_warn, within fail.
        let gpu = value(&obs, G, "update[1].gpu_cumulative");
        set(&mut obs, G, "update[1].gpu_cumulative", gpu * 1.05);
        // +40% on measured CPU time: within the loose time band.
        let cpu = value(&obs, G, "update[1].cpu_cumulative");
        set(&mut obs, G, "update[1].cpu_cumulative", cpu * 1.40);
        let checks = compare(&base, &obs, &Tolerances::default());
        assert!(!gate_failed(&checks));
        assert_eq!(
            verdict_of(&checks, "update[1].gpu_cumulative"),
            Verdict::Warn
        );
        assert_eq!(verdict_of(&checks, "update[1].cpu_cumulative"), Verdict::Ok);
        // +25% on a deterministic counter: fail.
        let mut obs = fig7();
        set(&mut obs, G, "total_instructions", 90_000_000.0 * 1.25);
        let checks = compare(&base, &obs, &Tolerances::default());
        assert!(gate_failed(&checks));
    }

    #[test]
    fn fig7_missing_update_fails() {
        let base = fig7();
        let obs: Vec<_> = fig7()
            .into_iter()
            .filter(|q| !q.metric.starts_with("update[3]."))
            .collect();
        let checks = compare(&base, &obs, &Tolerances::default());
        assert!(gate_failed(&checks));
        let missing: Vec<_> = checks
            .iter()
            .filter(|c| c.verdict == Verdict::Fail)
            .map(|c| c.metric.as_str())
            .collect();
        assert_eq!(
            missing,
            [
                "update[3].triangles",
                "update[3].gpu_cumulative",
                "update[3].cpu_cumulative",
                "update[3].pim_cumulative"
            ]
        );
    }

    #[test]
    fn fig7_section_parses_and_is_optional() {
        let text = r#"{
          "rows": [],
          "fig7_dynamic": {
            "rows": [{
              "update": 1,
              "triangles": 42,
              "cpu_cumulative": 0.5,
              "gpu_cumulative": 0.04,
              "pim_cumulative": 0.02
            }],
            "transfer_bytes": 100,
            "total_instructions": 200,
            "total_dma_bytes": 300
          }
        }"#;
        let q = read(text).unwrap();
        let named: Vec<_> = q
            .iter()
            .map(|q| (q.metric.as_str(), q.value, q.class))
            .collect();
        assert_eq!(
            named,
            [
                ("update[1].triangles", 42.0, Class::Exact),
                ("update[1].gpu_cumulative", 0.04, Class::Counter),
                ("update[1].cpu_cumulative", 0.5, Class::Time),
                ("update[1].pim_cumulative", 0.02, Class::Time),
                ("transfer_bytes", 100.0, Class::Counter),
                ("total_instructions", 200.0, Class::Counter),
                ("total_dma_bytes", 300.0, Class::Counter),
            ]
        );
        assert!(q.iter().all(|q| q.graph == "fig7_dynamic"));
        // Documents predating the section read without it, not as an error.
        assert_eq!(read(r#"{"rows": []}"#).unwrap(), []);
        assert!(read(r#"{"rows": [], "fig7_dynamic": {"rows": [{"update": 1}]}}"#).is_err());
    }

    #[test]
    fn routing_gate_is_one_sided() {
        let base = routing(1.0e6);
        let tol = Tolerances::default();
        // Faster than baseline: always Ok, however large the speedup.
        let checks = compare(&base, &routing(3.0e6), &tol);
        assert!(!gate_failed(&checks));
        assert_eq!(checks[0].verdict, Verdict::Ok);
        assert_eq!(checks[0].rel, 0.0);
        // 5% slower: past warn, within fail.
        let checks = compare(&base, &routing(0.95e6), &tol);
        assert!(!gate_failed(&checks));
        assert_eq!(checks[0].verdict, Verdict::Warn);
        // 20% slower: fail.
        let checks = compare(&base, &routing(0.8e6), &tol);
        assert!(gate_failed(&checks));
        assert_eq!(checks[0].metric, "edges_per_sec");
        assert_eq!(checks[0].graph, "routing_throughput");
    }

    #[test]
    fn routing_section_parses_and_is_optional() {
        let text = r#"{
          "rows": [],
          "routing_throughput": {"edges_per_sec": 7.5e6, "colors": 23}
        }"#;
        let q = read(text).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].value, 7.5e6);
        assert_eq!(q[0].class, Class::Floor);
        assert!(read(r#"{"rows": [], "routing_throughput": {}}"#).is_err());
    }

    #[test]
    fn baseline_json_parses() {
        let text = r#"{
          "rows": [{
            "graph": "g",
            "triangles": 7,
            "pim_phases": {
              "times": {"setup": 0.1, "sample_creation": 0.2, "triangle_count": 0.3},
              "nr_dpus": 4,
              "edges_routed": 9,
              "transfer_bytes": 11,
              "total_instructions": 13,
              "total_dma_bytes": 17,
              "kernel_cycles": {"triangle_count": 19}
            }
          }]
        }"#;
        let q = read(text).unwrap();
        assert_eq!(q.len(), 10);
        assert_eq!(value(&q, "g", "triangles"), 7.0);
        assert_eq!(value(&q, "g", "kernel_cycles[triangle_count]"), 19.0);
        assert_eq!(value(&q, "g", "phase_seconds[triangle_count]"), 0.3);
        assert!(read("{}").is_err());
        assert!(read("not json").is_err());
        assert!(read(r#"{"rows": [{"graph": "g", "pim_phases": {"times": {}}}]}"#).is_err());
    }

    /// Every check of `observed` against `baseline`, both given as
    /// baseline-shaped JSON documents.
    fn checks_of(baseline: &str, observed: &str) -> Vec<Check> {
        compare(
            &read(baseline).unwrap(),
            &read(observed).unwrap(),
            &Tolerances::default(),
        )
    }

    fn verdict_lines<'a>(checks: impl IntoIterator<Item = &'a Check>) -> String {
        checks
            .into_iter()
            .map(|c| {
                let verdict = match c.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Warn => "warn",
                    Verdict::Fail => "fail",
                };
                format!("{} {} {verdict}\n", c.graph, c.metric)
            })
            .collect()
    }

    const BASELINE: &str = include_str!("../../../results/bench_baseline.json");

    #[test]
    fn committed_baseline_against_itself_pins_every_check() {
        let checks = checks_of(BASELINE, BASELINE);
        assert_eq!(verdict_lines(&checks), GOLDEN_SELF);
    }

    /// `BASELINE` with the first `"key": value` scaled by `factor`.
    fn tampered(key: &str, value: &str, factor: f64) -> String {
        let from = format!("\"{key}\": {value},");
        let scaled = value.parse::<f64>().unwrap() * factor;
        let to = if value.contains('.') {
            format!("\"{key}\": {scaled:?},")
        } else {
            format!("\"{key}\": {},", scaled.round() as u64)
        };
        assert!(BASELINE.contains(&from), "{from} not in the baseline");
        BASELINE.replacen(&from, &to, 1)
    }

    #[test]
    fn one_tampered_quantity_per_class_gets_its_band() {
        let flagged = |observed: &str| {
            let checks = checks_of(BASELINE, observed);
            verdict_lines(checks.iter().filter(|c| c.verdict != Verdict::Ok))
        };
        // Exact: one triangle more fails outright.
        assert_eq!(
            flagged(&BASELINE.replacen("\"triangles\": 2821975,", "\"triangles\": 2821976,", 1)),
            "kron-s triangles fail\n"
        );
        // Counter: +5% warns, +20% fails.
        assert_eq!(
            flagged(&tampered("transfer_bytes", "39514104", 1.05)),
            "kron-s transfer_bytes warn\n"
        );
        assert_eq!(
            flagged(&tampered("transfer_bytes", "39514104", 1.20)),
            "kron-s transfer_bytes fail\n"
        );
        // Time: +60% on a phase warns.
        assert_eq!(
            flagged(&tampered("sample_creation", "0.1308031036022241", 1.60)),
            "kron-s phase_seconds[sample_creation] warn\n"
        );
        // Floor: 5% slower routing warns, faster is ok.
        assert_eq!(
            flagged(&tampered("edges_per_sec", "4734363.214776837", 0.95)),
            "routing_throughput edges_per_sec warn\n"
        );
        assert_eq!(
            flagged(&tampered("edges_per_sec", "4734363.214776837", 1.50)),
            ""
        );
    }

    /// 7 graphs x 11 checks, 10 fig7 updates x 4 plus 3 fig7 counters,
    /// and the routing floor: 121 checks.
    const GOLDEN_SELF: &str = "\
kron-s triangles ok\n\
kron-s nr_dpus ok\n\
kron-s edges_routed ok\n\
kron-s transfer_bytes ok\n\
kron-s total_instructions ok\n\
kron-s total_dma_bytes ok\n\
kron-s kernel_cycles[sample_creation] ok\n\
kron-s kernel_cycles[triangle_count] ok\n\
kron-s phase_seconds[sample_creation] ok\n\
kron-s phase_seconds[setup] ok\n\
kron-s phase_seconds[triangle_count] ok\n\
kron-l triangles ok\n\
kron-l nr_dpus ok\n\
kron-l edges_routed ok\n\
kron-l transfer_bytes ok\n\
kron-l total_instructions ok\n\
kron-l total_dma_bytes ok\n\
kron-l kernel_cycles[sample_creation] ok\n\
kron-l kernel_cycles[triangle_count] ok\n\
kron-l phase_seconds[sample_creation] ok\n\
kron-l phase_seconds[setup] ok\n\
kron-l phase_seconds[triangle_count] ok\n\
roads triangles ok\n\
roads nr_dpus ok\n\
roads edges_routed ok\n\
roads transfer_bytes ok\n\
roads total_instructions ok\n\
roads total_dma_bytes ok\n\
roads kernel_cycles[sample_creation] ok\n\
roads kernel_cycles[triangle_count] ok\n\
roads phase_seconds[sample_creation] ok\n\
roads phase_seconds[setup] ok\n\
roads phase_seconds[triangle_count] ok\n\
social-m triangles ok\n\
social-m nr_dpus ok\n\
social-m edges_routed ok\n\
social-m transfer_bytes ok\n\
social-m total_instructions ok\n\
social-m total_dma_bytes ok\n\
social-m kernel_cycles[sample_creation] ok\n\
social-m kernel_cycles[triangle_count] ok\n\
social-m phase_seconds[sample_creation] ok\n\
social-m phase_seconds[setup] ok\n\
social-m phase_seconds[triangle_count] ok\n\
social-d triangles ok\n\
social-d nr_dpus ok\n\
social-d edges_routed ok\n\
social-d transfer_bytes ok\n\
social-d total_instructions ok\n\
social-d total_dma_bytes ok\n\
social-d kernel_cycles[sample_creation] ok\n\
social-d kernel_cycles[triangle_count] ok\n\
social-d phase_seconds[sample_creation] ok\n\
social-d phase_seconds[setup] ok\n\
social-d phase_seconds[triangle_count] ok\n\
brain triangles ok\n\
brain nr_dpus ok\n\
brain edges_routed ok\n\
brain transfer_bytes ok\n\
brain total_instructions ok\n\
brain total_dma_bytes ok\n\
brain kernel_cycles[sample_creation] ok\n\
brain kernel_cycles[triangle_count] ok\n\
brain phase_seconds[sample_creation] ok\n\
brain phase_seconds[setup] ok\n\
brain phase_seconds[triangle_count] ok\n\
hyperlink triangles ok\n\
hyperlink nr_dpus ok\n\
hyperlink edges_routed ok\n\
hyperlink transfer_bytes ok\n\
hyperlink total_instructions ok\n\
hyperlink total_dma_bytes ok\n\
hyperlink kernel_cycles[sample_creation] ok\n\
hyperlink kernel_cycles[triangle_count] ok\n\
hyperlink phase_seconds[sample_creation] ok\n\
hyperlink phase_seconds[setup] ok\n\
hyperlink phase_seconds[triangle_count] ok\n\
fig7_dynamic update[1].triangles ok\n\
fig7_dynamic update[1].gpu_cumulative ok\n\
fig7_dynamic update[1].cpu_cumulative ok\n\
fig7_dynamic update[1].pim_cumulative ok\n\
fig7_dynamic update[2].triangles ok\n\
fig7_dynamic update[2].gpu_cumulative ok\n\
fig7_dynamic update[2].cpu_cumulative ok\n\
fig7_dynamic update[2].pim_cumulative ok\n\
fig7_dynamic update[3].triangles ok\n\
fig7_dynamic update[3].gpu_cumulative ok\n\
fig7_dynamic update[3].cpu_cumulative ok\n\
fig7_dynamic update[3].pim_cumulative ok\n\
fig7_dynamic update[4].triangles ok\n\
fig7_dynamic update[4].gpu_cumulative ok\n\
fig7_dynamic update[4].cpu_cumulative ok\n\
fig7_dynamic update[4].pim_cumulative ok\n\
fig7_dynamic update[5].triangles ok\n\
fig7_dynamic update[5].gpu_cumulative ok\n\
fig7_dynamic update[5].cpu_cumulative ok\n\
fig7_dynamic update[5].pim_cumulative ok\n\
fig7_dynamic update[6].triangles ok\n\
fig7_dynamic update[6].gpu_cumulative ok\n\
fig7_dynamic update[6].cpu_cumulative ok\n\
fig7_dynamic update[6].pim_cumulative ok\n\
fig7_dynamic update[7].triangles ok\n\
fig7_dynamic update[7].gpu_cumulative ok\n\
fig7_dynamic update[7].cpu_cumulative ok\n\
fig7_dynamic update[7].pim_cumulative ok\n\
fig7_dynamic update[8].triangles ok\n\
fig7_dynamic update[8].gpu_cumulative ok\n\
fig7_dynamic update[8].cpu_cumulative ok\n\
fig7_dynamic update[8].pim_cumulative ok\n\
fig7_dynamic update[9].triangles ok\n\
fig7_dynamic update[9].gpu_cumulative ok\n\
fig7_dynamic update[9].cpu_cumulative ok\n\
fig7_dynamic update[9].pim_cumulative ok\n\
fig7_dynamic update[10].triangles ok\n\
fig7_dynamic update[10].gpu_cumulative ok\n\
fig7_dynamic update[10].cpu_cumulative ok\n\
fig7_dynamic update[10].pim_cumulative ok\n\
fig7_dynamic transfer_bytes ok\n\
fig7_dynamic total_instructions ok\n\
fig7_dynamic total_dma_bytes ok\n\
routing_throughput edges_per_sec ok\n";
}
