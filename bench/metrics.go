package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// def declares one metric the benchmark prints. BENCHMARK.json at the root of
// the repository records the same names, units, directions and bounds;
// TestBenchmarkJSONMatches keeps the two in step.
type def struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of the system sees. Every workload prints
// every one of them, so each is defined in the workload's own unit of work
// ("op"): one §3.6 transaction on tx-loop, one ReportBatch(256) call on
// ingest-durable (throughput and CPU are counted per report), one read of the
// 70/20/10 mix on verified-read, one experiment of the `hirepsim -exp all`
// list on sim-paper.
var endToEnd = []def{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p90_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"rss_mb", "MB", "lower", 0.20},
}

// simExperiments is the `hirepsim -exp all` list, in its order.
var simExperiments = []string{"table1", "fig5", "fig6", "fig7", "fig8", "overhead", "attacks", "churn", "models", "latency", "bytes", "tokens", "loss"}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<what>. They carry no bound. A metric that does not apply to a
// workload (sim.* on a live workload, node.* on sim-paper) reads 0 there.
var perLayer = func() []def {
	d := []def{
		{Name: "pkc.seal_us", Unit: "us", Better: "lower"},
		{Name: "pkc.open_us", Unit: "us", Better: "lower"},
		{Name: "pkc.sign_us", Unit: "us", Better: "lower"},
		{Name: "pkc.verify_us", Unit: "us", Better: "lower"},
		{Name: "pkc.verify_batch_us_per_sig", Unit: "us", Better: "lower"},
		{Name: "pkc.allocs_per_seal", Unit: "count", Better: "lower"},
		{Name: "onion.build_us", Unit: "us", Better: "lower"},
		{Name: "onion.peel_us", Unit: "us", Better: "lower"},
		{Name: "onion.bytes_per_hop", Unit: "B", Better: "lower"},
		{Name: "wire.frame_roundtrip_ns", Unit: "ns", Better: "lower"},
		{Name: "wire.allocs_per_frame", Unit: "count", Better: "lower"},
		{Name: "transport.rtt_pooled_us", Unit: "us", Better: "lower"},
		{Name: "transport.rtt_direct_us", Unit: "us", Better: "lower"},
		{Name: "transport.conns_open", Unit: "count", Better: "lower"},
		{Name: "agentdir.submit_us", Unit: "us", Better: "lower"},
		{Name: "agentdir.submit_batch_us_per_report", Unit: "us", Better: "lower"},
		{Name: "agentdir.trust_value_ns", Unit: "ns", Better: "lower"},
		{Name: "repstore.append_sync_us", Unit: "us", Better: "lower"},
		{Name: "repstore.append_mem_ns", Unit: "ns", Better: "lower"},
		{Name: "repstore.tally_ns", Unit: "ns", Better: "lower"},
		{Name: "repstore.subject_proof_us", Unit: "us", Better: "lower"},
		{Name: "repstore.wal_bytes_per_report", Unit: "B", Better: "lower"},
		{Name: "repstore.disk_bytes_per_report", Unit: "B", Better: "lower"},
		{Name: "repstore.compactions", Unit: "count", Better: "lower"},
		{Name: "repstore.recover_s", Unit: "s", Better: "lower"},
		{Name: "proof.assemble_us", Unit: "us", Better: "lower"},
		{Name: "proof.verify_us", Unit: "us", Better: "lower"},
		{Name: "proof.bundle_bytes", Unit: "B", Better: "lower"},
		{Name: "proof.snapshot_verify_us", Unit: "us", Better: "lower"},
		{Name: "node.evaluate_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "node.complete_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "node.request_trust_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "node.request_snapshot_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "node.request_proven_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "node.report_batch_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "node.frames_per_op", Unit: "count", Better: "lower"},
		{Name: "node.onions_fwd_per_op", Unit: "count", Better: "lower"},
		{Name: "node.allocs_per_op", Unit: "count", Better: "lower"},
		{Name: "node.bytes_per_op", Unit: "B", Better: "lower"},
		{Name: "node.ingest_shed", Unit: "count", Better: "lower"},
		{Name: "node.reports_deferred", Unit: "count", Better: "lower"},
		{Name: "node.reports_lost", Unit: "count", Better: "lower"},
		{Name: "node.timeouts", Unit: "count", Better: "lower"},
		{Name: "node.proof_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "node.tx_explained_ms", Unit: "ms", Better: "higher"},
		{Name: "node.tx_unexplained_ms", Unit: "ms", Better: "lower"},
		{Name: "resilience.retry_total", Unit: "count", Better: "lower"},
		{Name: "resilience.breaker_open_total", Unit: "count", Better: "lower"},
		{Name: "resilience.outbox_depth_max", Unit: "count", Better: "lower"},
		{Name: "topology.generate_ms", Unit: "ms", Better: "lower"},
		{Name: "core.bootstrap_ms", Unit: "ms", Better: "lower"},
		{Name: "core.tx_us", Unit: "us", Better: "lower"},
		{Name: "voting.tx_us", Unit: "us", Better: "lower"},
		{Name: "simnet.events", Unit: "count", Better: "lower"},
		{Name: "simnet.msgs_delivered", Unit: "count", Better: "lower"},
		{Name: "simnet.events_per_s", Unit: "1/s", Better: "higher"},
		{Name: "simnet.peak_queue", Unit: "count", Better: "lower"},
	}
	for _, e := range simExperiments[1:] { // table1 only renders parameters
		d = append(d, def{Name: "sim." + e + "_s", Unit: "s", Better: "lower"})
	}
	return append(d,
		def{Name: "load.gen_late_p99_ms", Unit: "ms", Better: "lower"},
		def{Name: "load.op_p99_ms", Unit: "ms", Better: "lower"},
		def{Name: "load.tx_p50_ms_r350", Unit: "ms", Better: "lower"},
		def{Name: "load.tx_p99_ms_r350", Unit: "ms", Better: "lower"},
		def{Name: "load.max_rate_ok", Unit: "1/s", Better: "higher"},
		def{Name: "load.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
		def{Name: "load.peak_rss_mb", Unit: "MB", Better: "lower"},
	)
}()

// value is one measured metric with the number of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// sink collects a run's metrics by name.
type sink map[string]value

func (s sink) set(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s[name] = value{Value: v, N: n}
}

// undeclared lists the names the run set that neither metric table declares.
func (s sink) undeclared() []string {
	known := make(map[string]bool, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	var unknown []string
	for name := range s {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	return unknown
}

// quantile returns the q-quantile of xs with linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// printTable renders defs and their values as an aligned table.
func printTable(w io.Writer, title string, defs []def, vals []value) {
	fmt.Fprintf(w, "%s\n", title)
	width := 0
	for _, d := range defs {
		if len(d.Name) > width {
			width = len(d.Name)
		}
	}
	for i, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  bound %2.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "  %-*s %14s %-6s n=%-6d%s\n", width, d.Name, trimFloat(vals[i].Value), d.Unit, vals[i].N, bound)
	}
}

// trimFloat prints v with enough digits to compare runs and no padding zeros.
func trimFloat(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}
