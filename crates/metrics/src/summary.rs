//! Aggregation of a recorded event stream back into run totals.
//!
//! [`parse_jsonl`] validates a JSONL metrics capture (every line parses,
//! sequence numbers strictly increase); [`summarize`] folds the events into
//! a [`StreamSummary`] whose totals are pinned — by tests and by the
//! `pimtc metrics-summary` acceptance criteria — to match the simulator's
//! final `SystemReport` exactly.

use crate::event::Event;
use std::collections::BTreeMap;

/// Aggregates for one transfer op (`push` / `broadcast` / `gather`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransferAgg {
    /// Transfer operations observed (including failed ones).
    pub ops: u64,
    /// Failed transfer operations.
    pub failed: u64,
    /// Per-DPU writes carried by successful transfers.
    pub writes: u64,
    /// Bytes moved by successful transfers.
    pub bytes: u64,
    /// Modeled bus seconds (successful + wasted).
    pub seconds: f64,
}

/// Per-rank aggregates recovered from a rank-labeled stream (R > 1).
///
/// Populated only for events carrying a `rank` field — an unscoped
/// single-rank stream yields an empty map.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankAgg {
    /// Events attributed to this rank.
    pub events: u64,
    /// Transfer operations (including failed ones).
    pub transfer_ops: u64,
    /// Bytes moved by successful transfers.
    pub transfer_bytes: u64,
    /// Retry spans (`retry:<op>` host labels).
    pub retries: u64,
    /// Injected faults of every kind.
    pub faults: u64,
    /// Core deaths: `kill` plus `rank_dead` faults.
    pub deaths: u64,
    /// Kernel launches (including killed ones).
    pub launches: u64,
    /// Sum of per-launch critical-path (max) cycles.
    pub kernel_cycles: u64,
}

/// Aggregates for one kernel label.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LaunchAgg {
    /// Launches observed (including killed ones).
    pub launches: u64,
    /// Launches killed by injected faults.
    pub failed: u64,
    /// Sum of per-launch critical-path (max) cycles.
    pub max_cycles_total: u64,
    /// Instructions retired across all launches.
    pub instructions: u64,
    /// MRAM DMA bytes across all launches.
    pub dma_bytes: u64,
    /// Modeled launch seconds.
    pub seconds: f64,
}

/// Totals recovered from a metrics event stream.
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Events in the stream.
    pub events: u64,
    /// Highest sequence number seen.
    pub last_seq: u64,
    /// DPUs allocated (summed over `alloc` events — one per rank).
    pub nr_dpus: u64,
    /// Per-op transfer aggregates.
    pub transfers: BTreeMap<String, TransferAgg>,
    /// Per-label launch aggregates.
    pub launches: BTreeMap<String, LaunchAgg>,
    /// Host seconds per label (retry labels included verbatim).
    pub host_seconds: BTreeMap<String, f64>,
    /// Retry counts per op (parsed from `retry:<op>` host labels).
    pub retries: BTreeMap<String, u64>,
    /// Fault counts per kind (`transfer_fail` / `corrupt` / `launch_fail` /
    /// `kill`).
    pub faults: BTreeMap<String, u64>,
    /// Streamed chunks processed.
    pub chunks: u64,
    /// Edges contained in all chunks.
    pub edges: u64,
    /// Edges offered to reservoirs.
    pub edges_offered: u64,
    /// Edges kept by reservoirs.
    pub edges_kept: u64,
    /// High-water mark of routed staging bytes.
    pub peak_routed_bytes: u64,
    /// Last observed Misra–Gries summary size.
    pub mg_summary: u64,
    /// Last observed reservoir residency (edges).
    pub reservoir_resident: u64,
    /// Last observed reservoir capacity (edges).
    pub reservoir_capacity: u64,
    /// Maximum per-DPU reservoir fill fraction observed.
    pub reservoir_fill_max: f64,
    /// Spare-core failovers.
    pub failovers: u64,
    /// Partition banks re-derived by replaying their RNG journals.
    pub journal_replays: u64,
    /// Edge keys pushed back through the receive-kernel decision stream
    /// across all journal replays.
    pub journal_replayed_keys: u64,
    /// Proactive scrub sweeps over the live banks.
    pub scrub_sweeps: u64,
    /// Banks reinstalled in place because a scrub caught corruption.
    pub scrub_repaired: u64,
    /// Allocation seconds (summed over `alloc` events — one per rank).
    pub alloc_seconds: f64,
    /// Watchdog anomaly counts per kind (`straggler` / `stall` /
    /// `retry_spike` / `dpu_death` / `rank_death`).
    pub anomalies: BTreeMap<String, u64>,
    /// Per-rank breakdown, keyed by rank id (empty for unscoped streams).
    pub by_rank: BTreeMap<u64, RankAgg>,
}

impl StreamSummary {
    /// Total bytes moved by successful transfers, all ops.
    pub fn transfer_bytes(&self) -> u64 {
        self.transfers.values().map(|t| t.bytes).sum()
    }

    /// Total modeled bus seconds, all ops.
    pub fn transfer_seconds(&self) -> f64 {
        self.transfers.values().map(|t| t.seconds).sum()
    }

    /// Total instructions retired, all kernel labels.
    pub fn instructions(&self) -> u64 {
        self.launches.values().map(|l| l.instructions).sum()
    }

    /// Total MRAM DMA bytes, all kernel labels.
    pub fn dma_bytes(&self) -> u64 {
        self.launches.values().map(|l| l.dma_bytes).sum()
    }

    /// Total faults of every kind.
    pub fn total_faults(&self) -> u64 {
        self.faults.values().sum()
    }

    /// Sum of all modeled seconds in the stream (alloc + transfers +
    /// launches + host work). On the timed backend this closes against
    /// `PhaseTimes::total()`.
    pub fn total_seconds(&self) -> f64 {
        self.alloc_seconds
            + self.transfer_seconds()
            + self.launches.values().map(|l| l.seconds).sum::<f64>()
            + self.host_seconds.values().sum::<f64>()
    }
}

/// Parses a JSONL metrics capture, enforcing stream integrity: every
/// non-empty line must parse as an event, sequence numbers must be
/// strictly increasing, and — since the hub assigns consecutive sequence
/// numbers — any gap between adjacent events means lines were lost.
/// Errors name the offending line (1-based); a final line that fails to
/// parse is flagged as a possibly truncated tail (a writer cut off
/// mid-line) rather than silently accepting the partial stream.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, String> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .collect();
    let last_lineno = lines.last().map(|(n, _)| *n);
    let mut events = Vec::new();
    let mut last_seq = 0u64;
    for (lineno, line) in lines {
        let event = Event::parse(line).map_err(|e| {
            if Some(lineno) == last_lineno {
                format!("line {}: {} (possibly truncated tail)", lineno + 1, e)
            } else {
                format!("line {}: {}", lineno + 1, e)
            }
        })?;
        if event.seq <= last_seq {
            return Err(format!(
                "line {}: seq {} not strictly increasing (previous {})",
                lineno + 1,
                event.seq,
                last_seq
            ));
        }
        if last_seq > 0 && event.seq > last_seq + 1 {
            return Err(format!(
                "line {}: seq gap — {} follows {} ({} events missing from the stream)",
                lineno + 1,
                event.seq,
                last_seq,
                event.seq - last_seq - 1
            ));
        }
        last_seq = event.seq;
        events.push(event);
    }
    Ok(events)
}

/// Folds a parsed event stream into totals.
pub fn summarize(events: &[Event]) -> StreamSummary {
    let mut s = StreamSummary::default();
    for e in events {
        s.events += 1;
        s.last_seq = s.last_seq.max(e.seq);
        match e.kind.as_str() {
            // Multi-rank streams carry one alloc per rank (each rank view
            // attaches independently); totals are the cluster-wide sums.
            "alloc" => {
                s.nr_dpus += e.u64_field("nr_dpus");
                s.alloc_seconds += e.f64_field("seconds");
            }
            "transfer" => {
                let op = e.str_field("op").to_string();
                let agg = s.transfers.entry(op).or_default();
                agg.ops += 1;
                let ok = e.get("ok").and_then(|v| v.as_bool()).unwrap_or(true);
                if ok {
                    agg.writes += e.u64_field("writes");
                    agg.bytes += e.u64_field("bytes");
                } else {
                    agg.failed += 1;
                }
                agg.seconds += e.f64_field("seconds");
            }
            "launch" => {
                let label = e.str_field("label").to_string();
                let agg = s.launches.entry(label).or_default();
                agg.launches += 1;
                if !e.get("ok").and_then(|v| v.as_bool()).unwrap_or(true) {
                    agg.failed += 1;
                }
                agg.max_cycles_total += e.u64_field("max_cycles");
                agg.instructions += e.u64_field("instructions");
                agg.dma_bytes += e.u64_field("dma_bytes");
                agg.seconds += e.f64_field("seconds");
            }
            "host" => {
                let label = e.str_field("label").to_string();
                let secs = e.f64_field("seconds");
                if let Some(op) = label.strip_prefix("retry:") {
                    *s.retries.entry(op.to_string()).or_default() += 1;
                }
                *s.host_seconds.entry(label).or_default() += secs;
            }
            "fault" => {
                let kind = e.str_field("fault_kind").to_string();
                *s.faults.entry(kind).or_default() += 1;
            }
            "chunk" => {
                s.chunks += 1;
                s.edges += e.u64_field("edges");
                s.edges_offered += e.u64_field("offered");
                s.edges_kept += e.u64_field("kept");
                s.peak_routed_bytes = s.peak_routed_bytes.max(e.u64_field("peak_routed_bytes"));
                s.mg_summary = e.u64_field("mg_summary");
            }
            "reservoir" => {
                s.reservoir_resident = e.u64_field("resident");
                s.reservoir_capacity = e.u64_field("capacity");
                s.reservoir_fill_max = s.reservoir_fill_max.max(e.f64_field("max_fill"));
            }
            "failover" => {
                s.failovers += 1;
            }
            "journal_replay" => {
                s.journal_replays += 1;
                s.journal_replayed_keys += e.u64_field("keys");
            }
            "scrub" => {
                s.scrub_sweeps += 1;
                s.scrub_repaired += e.u64_field("repaired");
            }
            "anomaly" => {
                let kind = e.str_field("anomaly_kind").to_string();
                *s.anomalies.entry(kind).or_default() += 1;
            }
            _ => {}
        }
        // Rank-scoped hubs stamp every event with a `rank` field; fold those
        // into the per-rank breakdown alongside the cluster-wide totals.
        if let Some(rank) = e.get_u64("rank") {
            let agg = s.by_rank.entry(rank).or_default();
            agg.events += 1;
            match e.kind.as_str() {
                "transfer" => {
                    agg.transfer_ops += 1;
                    if e.get("ok").and_then(|v| v.as_bool()).unwrap_or(true) {
                        agg.transfer_bytes += e.u64_field("bytes");
                    }
                }
                "host" if e.str_field("label").starts_with("retry:") => {
                    agg.retries += 1;
                }
                "fault" => {
                    agg.faults += 1;
                    if matches!(e.str_field("fault_kind"), "kill" | "rank_dead") {
                        agg.deaths += 1;
                    }
                }
                "launch" => {
                    agg.launches += 1;
                    agg.kernel_cycles += e.u64_field("max_cycles");
                }
                _ => {}
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const STREAM: &str = r#"{"seq":1,"kind":"alloc","nr_dpus":64,"seconds":0.5}
{"seq":2,"kind":"phase","to":"setup"}
{"seq":3,"kind":"transfer","op":"push","phase":"setup","writes":64,"bytes":4096,"seconds":0.001,"ok":true}
{"seq":4,"kind":"transfer","op":"push","phase":"setup","writes":8,"bytes":0,"seconds":0.0005,"ok":false}
{"seq":5,"kind":"fault","fault_kind":"transfer_fail","phase":"setup","op":2}
{"seq":6,"kind":"host","label":"retry:push","phase":"setup","seconds":0.0001}
{"seq":7,"kind":"launch","label":"tc_count","phase":"triangle_count","dpus":64,"max_cycles":2000,"mean_cycles":1800.0,"instructions":9000,"dma_bytes":512,"seconds":0.002,"ok":true}
{"seq":8,"kind":"chunk","index":0,"edges":100,"offered":90,"kept":80,"routed":800,"peak_routed_bytes":800,"mg_summary":5}
{"seq":9,"kind":"reservoir","resident":80,"capacity":128,"max_fill":0.75}
{"seq":10,"kind":"failover","partition":3,"spare":63}
{"seq":11,"kind":"journal_replay","partition":3,"target":63,"keys":512,"marks":2}
{"seq":12,"kind":"scrub","partitions":10,"repaired":1,"failed_over":0}
"#;

    #[test]
    fn parse_and_summarize_round_trip() {
        let events = parse_jsonl(STREAM).expect("stream parses");
        assert_eq!(events.len(), 12);
        let s = summarize(&events);
        assert_eq!(s.events, 12);
        assert_eq!(s.last_seq, 12);
        assert_eq!(s.nr_dpus, 64);
        let push = &s.transfers["push"];
        assert_eq!(push.ops, 2);
        assert_eq!(push.failed, 1);
        assert_eq!(push.bytes, 4096);
        assert!((push.seconds - 0.0015).abs() < 1e-12);
        assert_eq!(s.transfer_bytes(), 4096);
        assert_eq!(s.launches["tc_count"].instructions, 9000);
        assert_eq!(s.instructions(), 9000);
        assert_eq!(s.dma_bytes(), 512);
        assert_eq!(s.retries["push"], 1);
        assert_eq!(s.faults["transfer_fail"], 1);
        assert_eq!(s.total_faults(), 1);
        assert_eq!(s.chunks, 1);
        assert_eq!(s.edges, 100);
        assert_eq!(s.edges_kept, 80);
        assert_eq!(s.peak_routed_bytes, 800);
        assert_eq!(s.mg_summary, 5);
        assert_eq!(s.reservoir_resident, 80);
        assert!((s.reservoir_fill_max - 0.75).abs() < 1e-12);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.journal_replays, 1);
        assert_eq!(s.journal_replayed_keys, 512);
        assert_eq!(s.scrub_sweeps, 1);
        assert_eq!(s.scrub_repaired, 1);
        let expected = 0.5 + 0.0015 + 0.002 + 0.0001;
        assert!((s.total_seconds() - expected).abs() < 1e-12);
    }

    #[test]
    fn non_monotonic_seq_is_rejected() {
        let bad = "{\"seq\":1,\"kind\":\"phase\",\"to\":\"setup\"}\n{\"seq\":1,\"kind\":\"phase\",\"to\":\"setup\"}\n";
        let err = parse_jsonl(bad).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("strictly increasing"), "{err}");
    }

    #[test]
    fn malformed_line_is_rejected_with_line_number() {
        let bad = "{\"seq\":1,\"kind\":\"phase\",\"to\":\"setup\"}\nnot json\n";
        let err = parse_jsonl(bad).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn seq_gaps_are_reported_not_skipped() {
        let gappy = "{\"seq\":1,\"kind\":\"phase\",\"to\":\"setup\"}\n{\"seq\":4,\"kind\":\"phase\",\"to\":\"triangle_count\"}\n";
        let err = parse_jsonl(gappy).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("seq gap"), "{err}");
        assert!(err.contains("2 events missing"), "{err}");
        // A stream that starts above seq 1 is not a gap: tools may trim the
        // head of a capture, and the first event carries no predecessor.
        let trimmed = "{\"seq\":5,\"kind\":\"phase\",\"to\":\"setup\"}\n{\"seq\":6,\"kind\":\"phase\",\"to\":\"x\"}\n";
        assert_eq!(parse_jsonl(trimmed).unwrap().len(), 2);
    }

    #[test]
    fn truncated_tail_is_called_out() {
        let cut = "{\"seq\":1,\"kind\":\"phase\",\"to\":\"setup\"}\n{\"seq\":2,\"kind\":\"tra";
        let err = parse_jsonl(cut).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("truncated tail"), "{err}");
        // A malformed line in the middle is a plain parse error.
        let mid = "{bad\n{\"seq\":2,\"kind\":\"phase\",\"to\":\"x\"}\n";
        let err = parse_jsonl(mid).unwrap_err();
        assert!(!err.contains("truncated tail"), "{err}");
    }

    #[test]
    fn anomalies_are_counted_by_kind() {
        let stream = "{\"seq\":1,\"kind\":\"anomaly\",\"anomaly_kind\":\"straggler\",\"detail\":\"x\"}\n{\"seq\":2,\"kind\":\"anomaly\",\"anomaly_kind\":\"straggler\",\"detail\":\"y\"}\n{\"seq\":3,\"kind\":\"anomaly\",\"anomaly_kind\":\"stall\",\"detail\":\"z\"}\n";
        let s = summarize(&parse_jsonl(stream).unwrap());
        assert_eq!(s.anomalies["straggler"], 2);
        assert_eq!(s.anomalies["stall"], 1);
    }

    #[test]
    fn rank_labeled_stream_builds_per_rank_breakdown() {
        let stream = concat!(
            "{\"seq\":1,\"kind\":\"transfer\",\"op\":\"push\",\"phase\":\"setup\",\"writes\":4,\"bytes\":100,\"seconds\":0.0,\"ok\":true,\"rank\":0}\n",
            "{\"seq\":2,\"kind\":\"transfer\",\"op\":\"push\",\"phase\":\"setup\",\"writes\":4,\"bytes\":200,\"seconds\":0.0,\"ok\":true,\"rank\":1}\n",
            "{\"seq\":3,\"kind\":\"launch\",\"label\":\"count\",\"phase\":\"triangle_count\",\"dpus\":4,\"max_cycles\":1000,\"mean_cycles\":900.0,\"instructions\":10,\"dma_bytes\":8,\"seconds\":0.0,\"ok\":true,\"rank\":1}\n",
            "{\"seq\":4,\"kind\":\"fault\",\"fault_kind\":\"kill\",\"phase\":\"triangle_count\",\"op\":3,\"dpu\":2,\"rank\":1}\n",
            "{\"seq\":5,\"kind\":\"fault\",\"fault_kind\":\"rank_dead\",\"phase\":\"triangle_count\",\"op\":4,\"rank\":0}\n",
            "{\"seq\":6,\"kind\":\"host\",\"label\":\"retry:receive\",\"phase\":\"triangle_count\",\"seconds\":0.0001,\"rank\":0}\n",
        );
        let s = summarize(&parse_jsonl(stream).unwrap());
        assert_eq!(s.by_rank.len(), 2);
        let r0 = &s.by_rank[&0];
        assert_eq!(r0.events, 3);
        assert_eq!(r0.transfer_bytes, 100);
        assert_eq!(r0.retries, 1);
        assert_eq!(r0.deaths, 1); // rank_dead
        let r1 = &s.by_rank[&1];
        assert_eq!(r1.transfer_bytes, 200);
        assert_eq!(r1.launches, 1);
        assert_eq!(r1.kernel_cycles, 1000);
        assert_eq!(r1.faults, 1);
        assert_eq!(r1.deaths, 1); // kill
                                  // The cluster-wide totals still see everything.
        assert_eq!(s.transfer_bytes(), 300);
    }

    #[test]
    fn unscoped_stream_has_empty_by_rank() {
        let s = summarize(&parse_jsonl(STREAM).unwrap());
        assert!(s.by_rank.is_empty());
        assert!(s.anomalies.is_empty());
    }
}
