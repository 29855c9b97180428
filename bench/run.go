package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"

	"buddy/internal/core"
)

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64 // how long the timed rounds run
	trace   bool    // also run the traced pass and the layer battery
	sz      sizing
	// setups is how often set-up is repeated at least (its median is
	// reported); a short set-up is repeated further, until an eighth of
	// seconds has gone into it or maxSetups are done, because the shorter it
	// is the more one burst of the host moves it. minRounds is the floor on
	// timed rounds however short the time.
	setups    int
	minRounds int
	tracePath string // where the traced pass writes its file ("" = nowhere)
}

const maxSetups = 7

// wall is a wall-clock metric's distribution over the timed rounds.
type wall struct {
	q1, q2, q3 float64
	n          int
}

func wallOf(xs []float64) wall {
	q1, q2, q3 := quartiles(xs)
	return wall{q1: q1, q2: q2, q3: q3, n: len(xs)}
}

// report is what one workload's run produced.
type report struct {
	workload  string
	rounds    int
	attempted int64 // operations issued; one that fails aborts the run, so none of them failed
	e2e       map[string]float64
	layer     map[string]float64 // nil unless traced
	walls     map[string]wall    // quartiles of the per-round wall metrics
	spans     [numSpanNames]layerTime
	header    map[string]any // recorded in every output and trace file
}

// runWorkload runs one workload: set-up (repeated), the timed rounds, the
// final checks, and — traced — the interleaved traced rounds and the layer
// battery. Any correctness violation is an error and no metrics come back.
func runWorkload(name string, o options) (*report, error) {
	rep := &report{workload: name, e2e: map[string]float64{}, walls: map[string]wall{}, header: header(name, o)}

	var setupS []float64
	var spent float64
	var w workload
	for i := 0; i < o.setups || i < maxSetups && spent < o.seconds/8; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		t0 := now()
		var err error
		if w, err = newWorkload(name, o.sz, o.seed); err != nil {
			return nil, err
		}
		if err := w.setup(); err != nil {
			return nil, errors.Join(fmt.Errorf("%s set-up: %w", name, err), w.close())
		}
		setupS = append(setupS, float64(now()-t0)/1e9)
		spent += setupS[i]
	}
	rep.e2e["setup_s"] = median(setupS)
	rep.walls["setup_s"] = wallOf(setupS)

	err := measure(w, o, rep)
	return rep, errors.Join(err, w.close())
}

func measure(w workload, o options, rep *report) error {
	var tr *tracer
	if o.trace {
		tr = newTracer(maxCallers)
	}
	var nsPerEntry, tracedNsPerEntry, p50 []float64
	lat := new(latencies)
	budget := int64(o.seconds * 1e9)
	if o.trace {
		// Half the time goes to the interleaved untraced/traced rounds, the
		// rest of the run to the layer battery.
		budget /= 2
	}
	runtime.GC()
	start := now()
	for rep.rounds < o.minRounds || now()-start < budget {
		k := 1 + rep.rounds
		s, err := w.round(k, nil, lat)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", rep.workload, rep.rounds, err)
		}
		rep.rounds++
		rep.attempted += int64(s["ops"])
		nsPerEntry = append(nsPerEntry, per(s["ns"], s["entries"]))
		// The typical operation's latency: the workload's own figure where
		// it has one (profile), else the median over the round's operations.
		typical, ok := s["typical_op_ns"]
		if !ok {
			typical = float64(quantileSorted(lat.sorted(true, true), 0.5))
		}
		p50 = append(p50, typical/1e3)
		if tr == nil {
			continue
		}
		t0 := now()
		s, err = w.round(k, tr, lat)
		if err != nil {
			return fmt.Errorf("%s traced round %d: %w", rep.workload, rep.rounds, err)
		}
		tr.fold(rep.rounds, t0, now())
		rep.attempted += int64(s["ops"])
		tracedNsPerEntry = append(tracedNsPerEntry, per(s["ns"], s["entries"]))
	}
	rep.e2e["ns_per_entry"] = median(nsPerEntry)
	rep.walls["ns_per_entry"] = wallOf(nsPerEntry)
	rep.e2e["op_lat_p50_us"] = median(p50)
	rep.walls["op_lat_p50_us"] = wallOf(p50)
	if err := w.finish(rep.e2e); err != nil {
		return fmt.Errorf("%s: %w", rep.workload, err)
	}
	if tr == nil {
		return nil
	}
	layer, err := battery(w, tr, o, rep)
	if err != nil {
		return fmt.Errorf("%s layer battery: %w", rep.workload, err)
	}
	// Round k runs untraced, then traced, on the same deal and op stream, so
	// the overhead is read pair by pair.
	over := make([]float64, len(tracedNsPerEntry))
	for i, t := range tracedNsPerEntry {
		over[i] = per(t, nsPerEntry[i]) - 1
	}
	layer["trace.overhead_frac"] = median(over)
	rep.layer = layer
	rep.spans = tr.agg
	if o.tracePath != "" {
		return tr.writeFile(o.tracePath, rep.header)
	}
	return nil
}

// battery runs every layer probe on the workload's data and maps the
// results onto the per-layer metric names.
func battery(w workload, tr *tracer, o options, rep *report) (map[string]float64, error) {
	f, s, err := w.probes()
	if err != nil {
		return nil, err
	}
	d := f.d
	m := map[string]float64{"host.calib_ns": rep.header["calib_ns"].(float64)}
	entries := float64(d.entries)

	// compress
	c, err := compressProbe(tr, d)
	if err != nil {
		return nil, err
	}
	encode, decode := c["encode_ns"]/entries, c["decode_ns"]/entries
	m["compress.encode_ns_per_entry"] = encode
	m["compress.decode_ns_per_entry"] = decode
	m["compress.size_ns_per_entry"] = c["size_ns"] / entries
	m["compress.zero_entry_frac"] = c["zeros"] / entries
	m["compress.stream_bytes_per_entry"] = c["stream_bytes"] / entries
	m["compress.sectors_per_entry"] = c["sectors"] / entries

	// core, on bare devices
	k, err := coreProbe(tr, d, o.seed, rpcCallers*o.sz.batteryRPCOps)
	if err != nil {
		return nil, err
	}
	spanW, spanR := k["span_write_ns"]/entries, k["span_read_ns"]/entries
	m["core.span_write_ns_per_entry"] = spanW
	m["core.span_read_ns_per_entry"] = spanR
	m["core.span_self_ns_per_entry"] = (spanW + spanR - encode - decode) / 2
	ew, er := per(k["entry_write_ns"], k["entry_write_entries"]), per(k["entry_read_ns"], k["entry_read_entries"])
	m["core.entry_write_ns_per_entry"] = ew
	m["core.entry_read_ns_per_entry"] = er
	// Per-call times: the two clients overlap, so the codec replay's
	// parallel ns/entry is doubled back to per-call cost before subtracting.
	entryOps := k["entry_write_entries"] + k["entry_read_entries"]
	m["core.entry_self_ns_per_entry"] = per(k["entry_write_ns"]+k["entry_read_ns"]-
		clients*(k["entry_write_entries"]*encode+k["entry_read_entries"]*decode), entryOps)
	m["core.retarget_ns_per_entry"] = k["reloc_retarget_ns"] / (2 * entries)
	m["core.export_import_ns_per_entry"] = k["reloc_export_import_ns"] / entries
	m["core.recover_ns_per_entry"] = per(k["reloc_recover_ns"], k["reloc_recover_entries"])
	m["core.malloc_free_us_per_pair"] = per(k["reloc_malloc_free_ns"], k["reloc_malloc_free_pairs"]) / 1e3
	m["core.mallocs_per_kentry"] = k["mallocs"] / (2 * entries) * 1e3
	m["core.heap_bytes_per_entry"] = k["heap_bytes"] / entries
	m["core.metadata_hit_rate"] = k["metadata_hit_rate"]
	m["core.device_bytes_per_access"] = k["device_bytes_per_access"]
	m["core.buddy_bytes_per_access"] = k["buddy_bytes_per_access"]
	m["core.metadata_fill_bytes_per_access"] = k["metadata_fill_bytes_per_access"]
	m["core.migration_bytes_per_entry"] = k["reloc_migration_bytes"] / (2 * entries)

	// pool, on the workload's own live pool
	lat := new(latencies)
	before := f.p.Stats()
	var mallocs float64
	pass := 0 // the probes' round number: each repetition draws its own shuffle
	st, err := repeat(tr, "pool.stream", func() (sample, error) {
		pass++
		m0 := mallocCount()
		s := f.streamRound(pass, nil, lat)
		mallocs = float64(mallocCount() - m0)
		return s, f.check()
	})
	if err != nil {
		return nil, err
	}
	after := f.p.Stats()
	mod := modeledBetween(before, after, (probeReps+1)*2*entries*core.EntryBytes)
	m["pool.write_ns_per_entry"] = st["write_ns"] / entries
	m["pool.read_ns_per_entry"] = st["read_ns"] / entries
	m["pool.submit_ns_per_op"] = per(st["submit_ns"], st["ops"])
	m["pool.wait_ns_per_op"] = per(st["wait_ns"], st["ops"])
	m["pool.mallocs_per_kentry"] = mallocs / (2 * entries) * 1e3
	m["pool.coalesced_frac"] = per(float64(after.Async.CoalescedTasks-before.Async.CoalescedTasks), float64(after.Async.Submitted-before.Async.Submitted))
	m["pool.tasks_per_run"] = per(float64(after.Async.CoalescedTasks-before.Async.CoalescedTasks), float64(after.Async.CoalescedRuns-before.Async.CoalescedRuns))
	m["pool.shard_service_imbalance"] = mod.imbalance
	m["pool.link_busy_cycles_max"] = mod.linkBusyMax / (probeReps + 1)
	m["pool.modeled_lat_p50_cycles"] = after.Latency.P50
	m["pool.modeled_lat_p99_cycles"] = after.Latency.P99
	streamNsPerEntry := st["ns"] / (2 * entries)

	var p99, p999, rp50, wp50 []float64
	rpc, err := repeat(tr, "pool.rpc", func() (sample, error) {
		pass++
		s := f.rpcRound(pass, nil, lat, o.sz.batteryRPCOps)
		all := lat.sorted(true, true)
		p99 = append(p99, float64(quantileSorted(all, 0.99))/1e3)
		p999 = append(p999, float64(quantileSorted(all, 0.999))/1e3)
		rp50 = append(rp50, float64(quantileSorted(lat.sorted(true, false), 0.5))/1e3)
		wp50 = append(wp50, float64(quantileSorted(lat.sorted(false, true), 0.5))/1e3)
		return s, f.check()
	})
	if err != nil {
		return nil, err
	}
	m["pool.op_lat_p99_us"] = median(p99[1:])
	m["pool.op_lat_p999_us"] = median(p999[1:])
	m["pool.read_lat_p50_us"] = median(rp50[1:])
	m["pool.write_lat_p50_us"] = median(wp50[1:])
	// The caller's ns/entry minus the matching core replay: the rpc shape
	// against the single-entry replay on serve-rpc, the stream shape against
	// the span replay everywhere else.
	if rep.workload == wRPC {
		m["pool.self_ns_per_entry"] = per(rpc["ns"], rpc["entries"]) - per(k["entry_ns"], entryOps)
	} else {
		m["pool.self_ns_per_entry"] = streamNsPerEntry - (spanW+spanR)/2
	}

	sy, err := repeat(tr, "pool.sync", f.syncRound)
	if err != nil {
		return nil, err
	}
	m["pool.sync_rw_ns_per_entry"] = sy["ns"] / (2 * entries)

	rl, err := repeat(tr, "pool.relocate", func() (sample, error) {
		pass++
		s, err := f.relocateRound(pass, nil, lat, true)
		if err != nil {
			return nil, err
		}
		return s, f.check()
	})
	if err != nil {
		return nil, err
	}
	m["pool.migrate_ns_per_entry"] = per(rl["migrate_ns"], rl["migrate_entries"])
	m["pool.drain_ns_per_entry"] = per(rl["drain_ns"], rl["drain_entries"])
	m["pool.recover_ns_per_entry"] = per(rl["recover_ns"], rl["recover_entries"])
	m["pool.churn_us_per_alloc"] = per(rl["churn_ns"], rl["churn_allocs"]) / 1e3
	m["pool.fg_ns_per_entry_moving"] = per(rl["fg_moving_ns"], rl["fg_moving_entries"])
	m["pool.fg_ns_per_entry_idle"] = per(rl["fg_idle_ns"], rl["fg_idle_entries"])
	m["pool.fg_retries"] = rl["fg_retries"]
	if err := f.audit(); err != nil {
		return nil, err
	}

	// workloads + analysis: profile's own rounds on profile, a reduced
	// suite everywhere else
	su, err := repeat(tr, "suite", func() (sample, error) {
		sm, _, err := s.round(nil, lat)
		return sm, err
	})
	if err != nil {
		return nil, err
	}
	heap0 := heapInuse()
	idxEntries := float64(s.indexEntries())
	s.last = nil
	m["workloads.generate_ns_per_entry"] = su["generate_ns"] / su["entries"]
	m["analysis.build_ns_per_entry"] = su["build_ns"] / su["entries"]
	m["analysis.profile_us_per_benchmark"] = su["profile_ns"] / su["ops"] / 1e3
	m["analysis.index_bytes_per_entry"] = per(float64(heap0)-float64(heapInuse()), idxEntries)

	// harness: the share of the traced rounds spent in bench/'s own spans
	var own int64
	for _, name := range []int{spRound, spClient, spRegion, spOp} {
		own += tr.agg[name].self
	}
	m["bench.harness_frac"] = per(float64(own), float64(int64(callers(rep.workload))*tr.agg[spRound].total))
	return m, nil
}

// syncRound writes and reads back every region in 4 KiB chunks through
// Handle.WriteAt / ReadAt: the pool's routing without its queues.
func (f *fleet) syncRound() (sample, error) {
	for _, r := range f.d.regions {
		r.reset()
	}
	t0 := now()
	var errs [clients]error
	parallel(func(c int) {
		for _, read := range []bool{false, true} {
			for _, r := range f.d.byClient[c] {
				for off := 0; off < len(r.data); off += chunkBytes {
					end := min(off+chunkBytes, len(r.data))
					var err error
					if read {
						_, err = r.h.ReadAt(r.rb[off:end], int64(off))
					} else {
						_, err = r.h.WriteAt(r.data[off:end], int64(off))
					}
					if err != nil && errs[c] == nil {
						errs[c] = fmt.Errorf("sync %s @%d: %w", r.name, off, err)
					}
				}
			}
		}
	})
	ns := now() - t0
	for _, r := range f.d.regions {
		if !bytes.Equal(r.rb, r.data) {
			return nil, fmt.Errorf("sync %s: read-back differs from what was written", r.name)
		}
	}
	return sample{"ns": float64(ns)}, errors.Join(errs[:]...)
}
