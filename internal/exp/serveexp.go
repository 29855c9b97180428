package exp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"buddy/internal/analysis"
	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/pool"
	"buddy/internal/workloads"
)

// ---------------------------------------------------------------------------
// Serve: sharded multi-device serving under concurrent client traffic
// ---------------------------------------------------------------------------
//
// The paper evaluates one GPU with one buddy-memory link; the serving
// experiment asks what a fleet front door buys. A mixed DL+HPC client
// population streams profiled snapshots through a pool — every client
// writes its working set and then reads it back through the asynchronous
// submission queues — once against a single shard holding the whole fleet
// capacity and once against N shards splitting the same capacity. The
// figure of merit is modeled aggregate serving throughput: total payload
// bytes over the fleet's modeled service time. Per shard, service time is
// pool.ShardStats.ServiceCycles — the shard's ledgers priced by
// core.Device.Cycles: device bytes at the Tab. 2 HBM2 rate plus the busier
// direction of the overflow link (full duplex; bytes carried over rate, so
// idle gaps between requests are not counted). Shards serve in parallel, so
// the pool's time is the slowest shard's.

// ServeClients is the concurrent client population of the experiment.
const ServeClients = 8

// serveBenchmarks is the mixed DL+HPC population the clients cycle
// through: four DL and four HPC working sets of distinct compressibility.
var serveBenchmarks = []string{
	"VGG16", "351.palm", "ResNet50", "360.ilbdc",
	"BigLSTM", "355.seismic", "Inception_V2", "352.ep",
}

// ServePoint is one pool configuration's measurement.
type ServePoint struct {
	// Shards is the pool width; total device capacity is the same at
	// every width (per-shard capacity divides by Shards).
	Shards int
	// ServiceCycles is the modeled fleet service time in core cycles: the
	// maximum over shards of device-transfer plus link-busy cycles.
	ServiceCycles float64
	// ThroughputGBs is PayloadBytes over ServiceCycles at the Tab. 2 core
	// clock — the modeled aggregate serving throughput.
	ThroughputGBs float64
	// WallSeconds is the host-side wall time of the run (informational:
	// it measures this machine's codec throughput, not the modeled GPUs).
	WallSeconds float64
	// MetadataHitRate is the access-weighted fleet metadata-cache hit
	// rate.
	MetadataHitRate float64
	// ShardServiceCycles holds each shard's individual service time.
	ShardServiceCycles []float64
}

// ServeChunked is the chunked-stream client shape's measurement: the same
// client population streaming ChunkBytes-sized pieces through the
// submission queues open-loop instead of one whole-region submit per
// allocation. Many small adjacent in-flight tasks is the shape the shard
// workers' run coalescing exists for, so this leg reports the host-side
// wall throughput of the async path itself alongside how much of the
// submitted traffic actually executed inside coalesced spans.
type ServeChunked struct {
	// ChunkBytes is the fixed submit granularity.
	ChunkBytes int
	// Shards is the pool width the chunked leg ran against.
	Shards int
	// WallSeconds and WallGBs are the host-side wall time and payload rate
	// (this machine's codec throughput through the async path, not the
	// modeled GPUs).
	WallSeconds float64
	WallGBs     float64
	// Submitted counts accepted operations; Inline is how many of them
	// were served in place on their submitter (none at this chunk size: a
	// 4 KiB submit always queues), and CoalescedFrac the fraction that
	// executed inside a coalesced run.
	Submitted     uint64
	Inline        uint64
	CoalescedFrac float64
}

// ServeResult is the serve experiment's outcome.
type ServeResult struct {
	// Clients and Benchmarks describe the client population.
	Clients    int
	Benchmarks []string
	// PayloadBytes is the total bytes each configuration served (writes
	// plus read-backs, identical across configurations).
	PayloadBytes int64
	// Points holds the single-shard baseline first, then the sharded
	// configuration(s).
	Points []ServePoint
	// Speedup is the last point's modeled throughput over the first's —
	// the aggregate gain of sharding at equal total capacity.
	Speedup float64
	// Chunked is the chunked-stream leg, run at the widest configuration.
	Chunked *ServeChunked
}

// serveClient is one client's working set: its profiled allocations and
// the data to stream through them.
type serveClient struct {
	names   []string
	data    [][]byte
	targets map[string]core.TargetRatio
}

// buildServeClients synthesizes and profiles each client's snapshot once;
// the same working sets drive every pool configuration.
func buildServeClients(clients, scale int, codec compress.Codec) ([]serveClient, int64, error) {
	out := make([]serveClient, clients)
	var raw int64
	for c := 0; c < clients; c++ {
		b, err := workloads.ByName(serveBenchmarks[c%len(serveBenchmarks)])
		if err != nil {
			return nil, 0, err
		}
		snap := workloads.GenerateSnapshot(b, 0, scale)
		prof := core.ProfileIndexes([]*analysis.Index{snapshotIndex(b, 0, scale, codec)}, core.FinalDesign())
		targets := prof.Targets()
		cl := serveClient{targets: make(map[string]core.TargetRatio)}
		for _, ma := range snap.Allocations {
			name := fmt.Sprintf("c%d/%s", c, ma.Name)
			cl.names = append(cl.names, name)
			cl.data = append(cl.data, ma.Data)
			t, ok := targets[ma.Name]
			if !ok {
				t = core.Target1x
			}
			cl.targets[name] = t
			raw += int64(len(ma.Data))
		}
		out[c] = cl
	}
	return out, raw, nil
}

// fanOut runs f(0) … f(n-1) on n goroutines, waits for them all and returns
// the first error any of them reported.
func fanOut(n int, f func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f(i); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return first
}

// newFleet builds the experiments' pool: width devices splitting totalDevice
// bytes evenly under one codec (nil: the default), so every width holds the
// same fleet capacity.
func newFleet(width int, totalDevice int64, codec compress.Codec, cfg pool.Config) (*pool.Pool, error) {
	devices := make([]*core.Device, width)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{Codec: codec, DeviceBytes: totalDevice / int64(width)})
	}
	return pool.New(devices, cfg)
}

// servePool runs the full client population against one pool: each client
// concurrently allocates its regions, streams every region in through the
// async submission queues, then reads the whole working set back. It
// returns the payload bytes moved.
func servePool(p *pool.Pool, clients []serveClient) (int64, error) {
	var payload atomic.Int64
	err := fanOut(len(clients), func(c int) error {
		cl := &clients[c]
		handles := make([]*pool.Handle, len(cl.names))
		var futs []*pool.Future
		for i, name := range cl.names {
			h, err := p.Malloc(name, int64(len(cl.data[i])), cl.targets[name])
			if err != nil {
				return err
			}
			handles[i] = h
			futs = append(futs, p.SubmitWrite(h, cl.data[i], 0))
		}
		var moved int64
		for i, f := range futs {
			n, err := f.Wait()
			if err != nil {
				return fmt.Errorf("write %s: %w", cl.names[i], err)
			}
			moved += int64(n)
		}
		// Read the working set back through the queues.
		futs = futs[:0]
		for _, h := range handles {
			futs = append(futs, p.SubmitRead(h, make([]byte, h.Size()), 0))
		}
		for i, f := range futs {
			n, err := f.Wait()
			if err != nil {
				return fmt.Errorf("read %s: %w", cl.names[i], err)
			}
			moved += int64(n)
		}
		payload.Add(moved)
		return nil
	})
	return payload.Load(), err
}

// serveChunkBytes is the chunked leg's submit granularity: 4 KiB, 32
// entries — small enough that coalescing matters, large enough that the
// queues stay saturated.
const serveChunkBytes = 4096

// serveChunkedPool streams the client population through one pool in
// serveChunkBytes pieces: every client submits all of a region's chunk
// writes open-loop before waiting, then does the same for the read-back, so
// the shard queues always hold runs of adjacent tasks for the workers to
// coalesce. Returns the payload bytes moved.
func serveChunkedPool(p *pool.Pool, clients []serveClient) (int64, error) {
	var payload atomic.Int64
	err := fanOut(len(clients), func(c int) error {
		cl := &clients[c]
		var moved int64
		var futs []*pool.Future
		stream := func(h *pool.Handle, buf []byte, read bool) {
			for off := 0; off < len(buf); off += serveChunkBytes {
				end := min(off+serveChunkBytes, len(buf))
				if read {
					futs = append(futs, p.SubmitRead(h, buf[off:end], int64(off)))
				} else {
					futs = append(futs, p.SubmitWrite(h, buf[off:end], int64(off)))
				}
			}
		}
		drain := func(what string) error {
			for _, f := range futs {
				n, err := f.Wait()
				if err != nil {
					return fmt.Errorf("chunked %s: %w", what, err)
				}
				moved += int64(n)
			}
			futs = futs[:0]
			return nil
		}
		handles := make([]*pool.Handle, len(cl.names))
		for i, name := range cl.names {
			h, err := p.Malloc(name, int64(len(cl.data[i])), cl.targets[name])
			if err != nil {
				return err
			}
			handles[i] = h
			stream(h, cl.data[i], false)
		}
		if err := drain("write"); err != nil {
			return err
		}
		for i, h := range handles {
			stream(h, make([]byte, h.Size()), true)
			if err := drain("read " + cl.names[i]); err != nil {
				return err
			}
		}
		payload.Add(moved)
		return nil
	})
	return payload.Load(), err
}

// Serve runs the sharded-serving experiment: ServeClients concurrent
// clients streaming mixed DL+HPC working sets, once against 1 shard and
// once against shards shards, at equal total device capacity. shards <= 0
// selects the default 4; an explicit 1 runs the baseline alone.
func Serve(scale, shards int) (*ServeResult, error) {
	if shards <= 0 {
		shards = 4
	}
	codec := compress.NewBPC()
	clients, raw, err := buildServeClients(ServeClients, scale, codec)
	if err != nil {
		return nil, err
	}
	// Equal total capacity at every width. 2x the raw footprint leaves
	// headroom for placement imbalance across shards; what matters for
	// the comparison is that both configurations hold the same fleet.
	totalDevice := 2 * raw

	res := &ServeResult{
		Clients:    ServeClients,
		Benchmarks: serveBenchmarks,
	}
	widths := []int{1, shards}
	if shards == 1 {
		widths = widths[:1]
	}
	for _, width := range widths {
		p, err := newFleet(width, totalDevice, codec, pool.Config{})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		payload, err := servePool(p, clients)
		wall := time.Since(start)
		if cerr := p.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("exp: serve %d shards: %w", width, err)
		}
		st := p.Stats()
		pt := ServePoint{
			Shards:          width,
			WallSeconds:     wall.Seconds(),
			MetadataHitRate: st.MetadataCacheHitRate,
		}
		for _, s := range st.Shards {
			pt.ShardServiceCycles = append(pt.ShardServiceCycles, s.ServiceCycles)
			pt.ServiceCycles = max(pt.ServiceCycles, s.ServiceCycles)
		}
		pt.ThroughputGBs = core.ThroughputGBs(payload, pt.ServiceCycles)
		res.PayloadBytes = payload
		res.Points = append(res.Points, pt)
	}
	if first := res.Points[0].ThroughputGBs; first > 0 {
		res.Speedup = res.Points[len(res.Points)-1].ThroughputGBs / first
	}

	// The chunked-stream leg: same fleet capacity at the widest
	// configuration, but the clients submit in 4 KiB pieces. This is the
	// client shape the workers' run coalescing serves; the telemetry reports
	// how much of the submitted traffic it captured.
	width := widths[len(widths)-1]
	p, err := newFleet(width, totalDevice, codec, pool.Config{})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	payload, err := serveChunkedPool(p, clients)
	wall := time.Since(start)
	st := p.Stats()
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("exp: serve chunked: %w", err)
	}
	res.Chunked = &ServeChunked{
		ChunkBytes:    serveChunkBytes,
		Shards:        width,
		WallSeconds:   wall.Seconds(),
		WallGBs:       float64(payload) / wall.Seconds() / 1e9,
		Submitted:     st.Async.Submitted,
		Inline:        st.Async.Inline,
		CoalescedFrac: st.Async.CoalescedFrac(),
	}
	return res, nil
}
