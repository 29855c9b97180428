package main

// metric declares one reported number. BENCHMARK.json at the repository
// root is `bench -spec` verbatim; the unit test holds the two together.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// axis says what kind of number this is: "wall" (host clock, this
	// machine), "modeled" (Tab. 2 cycles and byte counts, machine
	// independent) or "host" (Go heap / allocation counts).
	axis string
}

// The ten end-to-end metrics. Bound is the share of the parent commit's
// median by which the metric may worsen before a change is a regression.
// Each bound is at least three times the widest run-to-run spread (quartile
// distance over median, ten seeds) seen on any workload on the builder's
// 2-vCPU box. The two wall speed metrics have the widest bound the contract
// allows, because the host that checks the benchmark is several times
// noisier than the builder's (README, "Bounds"). The modeled counts repeat
// exactly for a seed, and their bounds are what the seed-to-seed spread of
// the generated inputs needs.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, axis: "wall"},
	{Name: "ns_per_entry", Unit: "ns", Better: "lower", Bound: 0.25, axis: "wall"},
	{Name: "op_lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25, axis: "wall"},
	{Name: "compression_ratio", Unit: "ratio", Better: "higher", Bound: 0.01, axis: "modeled"},
	{Name: "buddy_access_frac", Unit: "ratio", Better: "lower", Bound: 0.05, axis: "modeled"},
	{Name: "modeled_gb_per_s", Unit: "GB/s", Better: "higher", Bound: 0.03, axis: "modeled"},
	{Name: "host_bytes_per_entry", Unit: "B", Better: "lower", Bound: 0.10, axis: "host"},
	{Name: "ratio_hpc", Unit: "ratio", Better: "higher", Bound: 0.01, axis: "modeled"},
	{Name: "ratio_dl", Unit: "ratio", Better: "higher", Bound: 0.01, axis: "modeled"},
	{Name: "paper_err_pct", Unit: "%", Better: "lower", Bound: 0.02, axis: "modeled"},
}

// The per-layer metrics; the part of the name before the first dot is the
// module measured. They have no bound: they say where a change landed.
var perLayer = []metric{
	{Name: "compress.encode_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "compress.decode_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "compress.size_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "compress.zero_entry_frac", Unit: "ratio", Better: "higher", axis: "modeled"},
	{Name: "compress.stream_bytes_per_entry", Unit: "B", Better: "lower", axis: "modeled"},
	{Name: "compress.sectors_per_entry", Unit: "count", Better: "lower", axis: "modeled"},

	{Name: "core.span_write_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.span_read_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.span_self_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.entry_write_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.entry_read_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.entry_self_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.retarget_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.export_import_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.recover_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "core.malloc_free_us_per_pair", Unit: "us", Better: "lower", axis: "wall"},
	{Name: "core.mallocs_per_kentry", Unit: "count", Better: "lower", axis: "host"},
	{Name: "core.heap_bytes_per_entry", Unit: "B", Better: "lower", axis: "host"},
	{Name: "core.metadata_hit_rate", Unit: "ratio", Better: "higher", axis: "modeled"},
	{Name: "core.device_bytes_per_access", Unit: "B", Better: "lower", axis: "modeled"},
	{Name: "core.buddy_bytes_per_access", Unit: "B", Better: "lower", axis: "modeled"},
	{Name: "core.metadata_fill_bytes_per_access", Unit: "B", Better: "lower", axis: "modeled"},
	{Name: "core.migration_bytes_per_entry", Unit: "B", Better: "lower", axis: "modeled"},

	{Name: "pool.write_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.read_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.submit_ns_per_op", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.wait_ns_per_op", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.self_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.sync_rw_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.coalesced_frac", Unit: "ratio", Better: "higher", axis: "modeled"},
	{Name: "pool.tasks_per_run", Unit: "count", Better: "higher", axis: "modeled"},
	{Name: "pool.op_lat_p99_us", Unit: "us", Better: "lower", axis: "wall"},
	{Name: "pool.op_lat_p999_us", Unit: "us", Better: "lower", axis: "wall"},
	{Name: "pool.read_lat_p50_us", Unit: "us", Better: "lower", axis: "wall"},
	{Name: "pool.write_lat_p50_us", Unit: "us", Better: "lower", axis: "wall"},
	{Name: "pool.modeled_lat_p50_cycles", Unit: "cycles", Better: "lower", axis: "modeled"},
	{Name: "pool.modeled_lat_p99_cycles", Unit: "cycles", Better: "lower", axis: "modeled"},
	{Name: "pool.shard_service_imbalance", Unit: "ratio", Better: "lower", axis: "modeled"},
	{Name: "pool.link_busy_cycles_max", Unit: "cycles", Better: "lower", axis: "modeled"},
	{Name: "pool.migrate_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.drain_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.recover_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.churn_us_per_alloc", Unit: "us", Better: "lower", axis: "wall"},
	{Name: "pool.fg_ns_per_entry_moving", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.fg_ns_per_entry_idle", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "pool.fg_retries", Unit: "count", Better: "lower", axis: "wall"},
	{Name: "pool.mallocs_per_kentry", Unit: "count", Better: "lower", axis: "host"},

	{Name: "workloads.generate_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "analysis.build_ns_per_entry", Unit: "ns", Better: "lower", axis: "wall"},
	{Name: "analysis.index_bytes_per_entry", Unit: "B", Better: "lower", axis: "host"},
	{Name: "analysis.profile_us_per_benchmark", Unit: "us", Better: "lower", axis: "wall"},

	{Name: "bench.harness_frac", Unit: "ratio", Better: "lower", axis: "wall"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", axis: "wall"},
	{Name: "host.calib_ns", Unit: "ns", Better: "lower", axis: "wall"},
}

// workloadWhy is each workload's one-line reason for existing, as
// BENCHMARK.json records it.
var workloadWhy = map[string]string{
	wStream:   "mixed DL+HPC fleet streamed in 4 KiB submits: submit, scheduler, coalescer, span path, codec, tiers, future; codec-dominant",
	wRPC:      "two tenants, 1-4 entry sync ops at random offsets: nothing coalesces, single-entry path, class+DRR dequeue; codec a small share",
	wRelocate: "migrate, retarget, free+recreate, kill+recover, drain under a foreground verifier: the entry-table walkers, codec-free",
	wProfile:  "the sixteen-benchmark profiling pipeline without pool or device: synthesis plus sizing pass, and the fidelity-vs-paper numbers",
}

// runSeconds is BENCHMARK.json's run_seconds: how long the driver asks one
// run to measure.
const runSeconds = 25

// spec is the document BENCHMARK.json holds.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func benchmarkSpec() spec {
	s := spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, name := range workloadNames {
		s.Workloads = append(s.Workloads, specWorkload{Name: name, Why: workloadWhy[name]})
	}
	return s
}
