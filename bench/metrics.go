package main

// metricDef names one metric and its unit. The two lists below are the
// benchmark's output contract: an untraced run prints exactly endToEnd, a
// traced run exactly perLayer, and BENCHMARK.json lists the same names
// (pinned by TestBenchmarkJSONMatchesMetricLists).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_k_per_op", "1000"},
	{"peak_rss_mb", "MB"},
	{"quality", "ratio"},
}

var perLayer = []metricDef{
	{"httpapi.decode_ms", "ms"},
	{"httpapi.encode_ms", "ms"},
	{"httpapi.req_kb", "kB"},
	{"httpapi.resp_kb", "kB"},
	{"httpapi.roundtrip_floor_ms", "ms"},

	{"graph.validate_ms", "ms"},
	{"graph.fingerprint_ms", "ms"},
	{"graph.fingerprint_allocs_k", "1000"},
	{"graph.fingerprint_memo_us", "us"},

	{"service.hit_ms", "ms"},
	{"service.miss_overhead_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.plans_executed", "count"},
	{"service.plans_coalesced", "count"},
	{"service.jobs_shed", "count"},
	{"service.plan_warm_ms_mean", "ms"},
	{"service.plan_cold_ms_mean", "ms"},
	{"service.identical_op_p50_ms", "ms"},
	{"service.renamed_op_p50_ms", "ms"},
	{"service.permuted_hit_valid_ratio", "ratio"},

	{"planner.ms_per_sample", "ms"},
	{"planner.samples_per_op", "count"},
	{"planner.valid_sample_ratio", "ratio"},
	{"planner.baseline_ms", "ms"},
	{"planner.analytic_ms", "ms"},

	{"rl.graphctx_ms", "ms"},
	{"rl.forward_ms", "ms"},
	{"rl.backward_ms", "ms"},
	{"rl.iterate_ms", "ms"},
	{"rl.iterate_alloc_mb", "MB"},
	{"rl.zeroshot_ms_per_sample", "ms"},

	{"gnn.forward_ms", "ms"},
	{"gnn.backward_ms", "ms"},
	{"nn.adam_step_ms", "ms"},
	{"mat.mul_ms", "ms"},
	{"mat.mulatb_ms", "ms"},
	{"mat.mulabt_ms", "ms"},
	{"mat.mul_gmacs", "GMAC/s"},

	{"cpsolver.new_ms", "ms"},
	{"cpsolver.sample_ms", "ms"},
	{"cpsolver.fix_ms", "ms"},
	{"cpsolver.error_ratio", "ratio"},

	{"costmodel.assess_us", "us"},
	{"hwsim.assess_ms", "ms"},
	{"search.sa_ms_per_sample", "ms"},
	{"search.random_ms_per_sample", "ms"},

	{"analyze.new_ms", "ms"},
	{"analyze.plan_ms", "ms"},

	{"pretrain.run_s", "s"},
	{"randgraph.generate_ms", "ms"},
	{"workload.bert_build_ms", "ms"},

	{"parallel.pool_dispatch_us", "us"},
	{"plancache.put_ms", "ms"},
	{"plancache.get_ms", "ms"},
	{"telemetry.scrape_ms", "ms"},

	{"proc.cpu_ms_per_op", "ms"},
	{"proc.gc_cycles_per_op", "count"},
	{"proc.gc_pause_ms_per_op", "ms"},

	{"host.calib_ms", "ms"},
	{"host.calib_iqr_ratio", "ratio"},
	{"host.drift_factor", "ratio"},
	{"host.noisy", "bool"},
	{"host.raw_op_p50_ms", "ms"},
	{"host.raw_ops_per_s", "1/s"},
	{"host.op_tail_ms", "ms"},

	{"check.fail_ratio", "ratio"},

	{"trace.coverage", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}
