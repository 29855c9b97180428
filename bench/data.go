package main

import (
	"fmt"
	"sort"
	"sync"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/gen"
	"buddy/internal/memory"
	"buddy/internal/pool"
	"buddy/internal/workloads"
)

// clients is the closed-loop client population of every workload: one
// goroutine per vCPU of the reference box. More clients than cores only
// measures the Go scheduler.
const clients = 2

// rpcCallers is how many synchronous callers each serve-rpc client (one per
// tenant) runs. A synchronous caller sleeps while the shard worker serves
// it, so with one caller per client the runtime's two Ps had nothing to run
// 40 % of the time: they parked and were woken 10 000 times a second, a
// second P made the round slower than GOMAXPROCS=1 did (905 against
// 800 ns/entry), and what moved the number was how fast the host brings a
// halted vCPU back — 21-29 % between runs of one binary on the host that
// checks this benchmark. Four callers per client keep both Ps in work (1.93
// cores busy, 250 wake-ups a second, 417 ns/entry) and leave the median
// latency of an operation where it was, 1.7 µs. Each caller owns its share
// of the client's regions, so the flip-bit oracle needs no lock.
const rpcCallers = 4

// maxCallers bounds the goroutines a round runs at once; per-goroutine
// state (latencies, span buffers) is sized by it.
const maxCallers = clients * rpcCallers

// chunkBytes is the stream clients' submit granularity (32 entries): small
// enough that the shard workers' coalescing matters, the same shape as the
// serve experiment's chunked leg.
const chunkBytes = 4096

// fleetBenchmarks is the serve experiment's mixed population: four DL and
// four HPC working sets of distinct compressibility.
var fleetBenchmarks = []string{
	"VGG16", "351.palm", "ResNet50", "360.ilbdc",
	"BigLSTM", "355.seismic", "Inception_V2", "352.ep",
}

// Region groups for the per-suite ratios (the rpc tenants reuse the slots).
const (
	groupHPC = iota
	groupDL
)

// region is one allocation of a workload's data set: the bytes the client
// owns (the oracle), the profiled target, and — once loaded — the live
// handle state the passes share.
type region struct {
	name   string
	group  int
	tenant string // "" = the pool's default tenant
	target core.TargetRatio
	data   []byte // image A, a whole number of entries
	client int    // owning client goroutine

	// h is the live handle once a fleet has placed the region, home the
	// shard it was first placed on.
	h    *pool.Handle
	home int

	// flip is the rpc oracle: bit e set means entry e currently holds image
	// B (the entry rot positions further on, wrapping) instead of image A;
	// dirty says some bit may be set. Only the owning client touches them
	// while a pass runs.
	flip  []uint64
	dirty bool
	rot   int
	// rb is the stream passes' read-back buffer, allocated on first use.
	rb []byte
	// mu lets the relocate mover replace the handle (Close+Malloc) while
	// the foreground verifier reads: readers hold it shared.
	mu sync.RWMutex
}

func (r *region) entries() int { return len(r.data) / core.EntryBytes }

// image returns the bytes entry e holds in the given flip state.
func (r *region) image(e int, flipped bool) []byte {
	if flipped {
		e = (e + r.rot) % r.entries()
	}
	return r.data[e*core.EntryBytes : (e+1)*core.EntryBytes]
}

func (r *region) flipped(e int) bool { return r.flip[e>>6]&(1<<(e&63)) != 0 }
func (r *region) toggle(e int)       { r.flip[e>>6] ^= 1 << (e & 63); r.dirty = true }

// current returns what entry e must read back as.
func (r *region) current(e int) []byte { return r.image(e, r.flipped(e)) }

// reset marks every entry as holding image A (after a full rewrite).
func (r *region) reset() { clear(r.flip); r.dirty = false }

// dataset is a workload's generated input.
type dataset struct {
	regions []*region
	entries int
	// byClient lists each client's regions in its (seeded) visiting order.
	byClient [clients][]*region
	// pinned says region ownership is part of the workload (serve-rpc: one
	// client per tenant): assign then only reshuffles each client's order.
	pinned bool
}

func (d *dataset) add(r *region) {
	n := r.entries()
	r.flip = make([]uint64, (n+63)/64)
	r.rot = n/2 + 1
	d.regions = append(d.regions, r)
	d.entries += n
}

// assign deals the regions to the clients: the seed shuffles the order,
// then each region goes to the client holding fewer bytes so far, so the
// two closed loops finish a round together whatever the seed.
func (d *dataset) assign(rng *gen.RNG) {
	if d.pinned {
		for c := range d.byClient {
			own := d.byClient[c]
			for i, j := range rng.Perm(len(own)) {
				own[i], own[j] = own[j], own[i]
			}
		}
		return
	}
	var load [clients]int
	for c := range d.byClient {
		d.byClient[c] = nil
	}
	for _, i := range rng.Perm(len(d.regions)) {
		r := d.regions[i]
		c := 0
		for k := 1; k < clients; k++ {
			if load[k] < load[c] {
				c = k
			}
		}
		r.client = c
		load[c] += len(r.data)
		d.byClient[c] = append(d.byClient[c], r)
	}
}

// fleetSnapshot synthesizes one benchmark's snapshot for the fleet. The
// seed-chosen dump t applies to the DL benchmarks, whose dynamic regions
// churn per entry between dumps while their distribution stays fixed; the
// HPC benchmarks always contribute dump 0, because 355.seismic's wavefields
// fill in over the run and would move the fleet's ratio by 4 % between
// seeds.
func fleetSnapshot(b workloads.Benchmark, t, scale int) *memory.Snapshot {
	if b.Suite != workloads.DL {
		t = 0
	}
	return workloads.GenerateSnapshot(b, t, scale)
}

// buildFleet generates the mixed DL+HPC fleet: one snapshot per benchmark
// at 1/scale of its Tab. 1 footprint, each allocation annotated with the
// final design's target for it.
func buildFleet(names []string, scale int, codec compress.Codec, rng *gen.RNG) (*dataset, error) {
	d := &dataset{}
	t := rng.Intn(workloads.Snapshots)
	for _, name := range names {
		b, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		snap := fleetSnapshot(b, t, scale)
		targets := core.ProfileIndexes([]*analysis.Index{analysis.Build(snap, codec)}, core.FinalDesign()).Targets()
		group := groupHPC
		if b.Suite == workloads.DL {
			group = groupDL
		}
		for _, a := range snap.Allocations {
			target, ok := targets[a.Name]
			if !ok {
				target = core.Target1x
			}
			d.add(&region{name: b.Name + "/" + a.Name, group: group, target: target, data: a.Data})
		}
	}
	d.assign(rng)
	return d, nil
}

// rpcTenants are the serve-rpc tenants, one client of rpcCallers each: a
// latency-sensitive class-2 tenant (reported under the DL group, an
// inference-style tenant) and a weight-1 batch tenant (under HPC).
var rpcTenants = [clients]struct {
	name  string
	group int
	cfg   pool.TenantConfig
}{
	{"lat", groupDL, pool.TenantConfig{Priority: 2}},
	{"batch", groupHPC, pool.TenantConfig{Weight: 1}},
}

// buildRPC generates the rpc working set: per tenant, allocs allocations of
// allocBytes at Target4x. Three entries in four are zero and most of the
// rest are integer ramps, so the codec is almost free and the time goes to
// the scheduler, futures and the single-entry path; one non-zero entry in
// ten is random, which no codec compresses, so the buddy tier and the link
// model see traffic too.
func buildRPC(allocs, allocBytes int, rng *gen.RNG) *dataset {
	d := &dataset{pinned: true}
	g := gen.Blend{A: gen.Zeros{}, B: gen.Blend{A: gen.Ramp{}, B: gen.Random{}, PA: 0.9}, PA: 0.75}
	for c, tenant := range rpcTenants {
		for i := 0; i < allocs; i++ {
			r := &region{
				name:   fmt.Sprintf("%s/a%d", tenant.name, i),
				group:  tenant.group,
				tenant: tenant.name,
				target: core.Target4x,
				data:   make([]byte, allocBytes),
				client: c,
			}
			g.Fill(r.data, rng.Split())
			d.add(r)
			d.byClient[c] = append(d.byClient[c], r)
		}
	}
	return d
}

// smallestQuarter returns the quarter of the regions with the fewest
// entries (ties by name), the set the relocate mover frees and re-creates.
func (d *dataset) smallestQuarter() []*region {
	rs := append([]*region(nil), d.regions...)
	sort.Slice(rs, func(i, j int) bool {
		if a, b := rs[i].entries(), rs[j].entries(); a != b {
			return a < b
		}
		return rs[i].name < rs[j].name
	})
	return rs[:max(1, len(rs)/4)]
}
