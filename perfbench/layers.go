package main

// endToEnd are the untraced run's metrics. Every workload prints all of
// them; README.md defines each workload's operation.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"peak_heap_mb", "MB"},
}

// layerMetric is one per-layer figure of the traced run, with the
// end-to-end metric it should move and the workload it is read on. A
// traced run of any workload prints every per-layer metric; a layer the
// workload does not run reports 0 work, and its row below says which
// workload to read it on.
type layerMetric struct {
	name, unit string
	moves      string // end-to-end metric it should move
	on         string // workload it is read on
}

// heartbleedPhases are scenario.Heartbleed's phases, in order.
var heartbleedPhases = []string{
	"baseline-cold", "baseline-warm", "stampede", "heartbleed-storm",
	"stale-window", "brownout", "convergence",
}

var perLayer = func() []layerMetric {
	const (
		hb = "heartbleed-fleet"
		rc = "revocation-churn"
		pw = "paper-world"
	)
	ls := []layerMetric{
		{"fleet.new_s", "s", "setup_s, peak_heap_mb", hb},
	}
	for _, ph := range heartbleedPhases {
		ls = append(ls,
			layerMetric{"scenario." + ph + ".elapsed_s", "s", "ops_per_s", hb},
			layerMetric{"scenario." + ph + ".p99_us", "us", "op_p99_us (report)", hb})
	}
	return append(ls,
		layerMetric{"browser.store_lookup_ns_p50", "ns", "op_p50_us", hb},
		layerMetric{"browser.store_lookup_ns_p99", "ns", "op_p99_us (report)", hb},
		layerMetric{"browser.store_hit_ratio", "frac", "op_p50_us", hb},
		layerMetric{"browser.crl_wait_us", "us", "op_p99_us (report)", hb},
		layerMetric{"browser.crl_fetch_us", "us", "op_p90_us", rc},
		layerMetric{"crl.parse_verify_us", "us", "op_p90_us", rc},
		layerMetric{"browser.verdict_self_us", "us", "op_p50_us", rc},
		layerMetric{"simnet.requests", "count", "ops_per_s", rc},
		layerMetric{"simnet.bytes_per_op", "B", "ops_per_s", rc},
		layerMetric{"simnet.roundtrip_self_us", "us", "ops_per_s", rc},
		layerMetric{"simnet.cdn_hit_ratio", "frac", "op_p99_us (report)", hb},
		layerMetric{"simnet.cdn_self_us", "us", "op_p99_us (report)", hb},
		layerMetric{"ca.ocsp_origin_us_p50", "us", "op_p90_us", rc},
		layerMetric{"ca.ocsp_origin_us_p99", "us", "op_p90_us", rc},
		layerMetric{"ca.ocsp_origin_count", "count", "op_p90_us", rc},
		layerMetric{"ca.crl_origin_us_p50", "us", "op_p90_us; ops_per_s", rc + "; " + pw},
		layerMetric{"ca.crl_origin_us_p99", "us", "op_p90_us; ops_per_s", rc + "; " + pw},
		layerMetric{"ca.crl_origin_count", "count", "op_p90_us; ops_per_s", rc + "; " + pw},
		layerMetric{"ca.revoke_us", "us", "ops_per_s", rc},
		layerMetric{"ca.issue_s", "s", "setup_s", rc},
		layerMetric{"revdb.ingest_ms_p50", "ms", "ops_per_s", pw},
		layerMetric{"revdb.ingest_ms_p99", "ms", "ops_per_s", pw},
		layerMetric{"revdb.ingest_ms_total", "ms", "ops_per_s", pw},
		layerMetric{"workload.self_s", "s", "ops_per_s", pw},
		layerMetric{"experiments.analyze_s", "s", "ops_per_s", pw},
		layerMetric{"experiments.shape_mismatches", "count", "ops_per_s", pw},
		layerMetric{"cascade.publish_s", "s", "ops_per_s", pw},
		layerMetric{"cascade.audit_s", "s", "ops_per_s", pw},
		layerMetric{"cascade.probe_ns", "ns", "ops_per_s", pw},
		layerMetric{"corpus.resident_bytes", "B", "peak_heap_mb", pw},
		layerMetric{"hist.record_ns", "ns", "none", hb + "; " + rc + "; " + pw},
		layerMetric{"trace.overhead_frac", "frac", "none", hb + "; " + rc + "; " + pw},
	)
}()
