package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/dram"
	"buddy/internal/gen"
	"buddy/internal/pool"
)

// fleet is a data set loaded into a sharded pool, plus the three client
// shapes the pool workloads drive it with (stream, rpc, relocate). Each
// shape is a method that runs one fixed-work round and returns its
// measurements; the workloads time rounds of their own shape and the layer
// battery runs all three on every workload's data.
type fleet struct {
	d    *dataset
	p    *pool.Pool
	inj  *pool.FailureInjector
	seed uint64

	// loadedRatio is Pool.CompressionRatio right after placement; no pass
	// may change it.
	loadedRatio float64

	fails atomic.Int64 // failed operations (wrong bytes, unexpected errors)
	errMu sync.Mutex
	err   error // first failure, for the report
}

// fleetShards is every pool workload's width; total device capacity is 2x
// the raw footprint, as in the serve experiment, so placement imbalance,
// double reservations during moves and a drained shard's evacuees all fit.
const fleetShards = 4

// newFleet builds the pool and places every region, serially and in data
// set order so that placement — and with it every modeled count — is a
// function of the seed alone. GOMAXPROCS and the pool's Workers keep their
// defaults.
func newFleet(d *dataset, seed uint64) (*fleet, error) {
	f := &fleet{d: d, seed: seed, inj: pool.NewFailureInjector()}
	raw := int64(d.entries) * core.EntryBytes
	devices := make([]*core.Device, fleetShards)
	for i := range devices {
		devices[i] = core.NewDevice(core.Config{Codec: compress.NewBPC(), DeviceBytes: 2 * raw / fleetShards})
	}
	cfg := pool.Config{Injector: f.inj}
	if slices.ContainsFunc(d.regions, func(r *region) bool { return r.tenant != "" }) {
		cfg.Tenants = map[string]pool.TenantConfig{}
		for _, t := range rpcTenants {
			cfg.Tenants[t.name] = t.cfg
		}
	}
	p, err := pool.New(devices, cfg)
	if err != nil {
		return nil, err
	}
	f.p = p
	for _, r := range d.regions {
		h, err := f.malloc(r)
		if err != nil {
			return nil, errors.Join(err, p.Close())
		}
		r.h, r.home = h, h.Shard()
	}
	f.loadedRatio = p.CompressionRatio()
	return f, nil
}

func (f *fleet) malloc(r *region) (*pool.Handle, error) {
	if r.tenant == "" {
		return f.p.Malloc(r.name, int64(len(r.data)), r.target)
	}
	tn, err := f.p.Tenant(r.tenant)
	if err != nil {
		return nil, err
	}
	return tn.Malloc(r.name, int64(len(r.data)), r.target)
}

// close retires the pool's queues and every device's span workers.
func (f *fleet) close() error {
	errs := []error{f.p.Close()}
	for i := 0; i < f.p.Shards(); i++ {
		errs = append(errs, f.p.Device(i).Close())
	}
	return errors.Join(errs...)
}

// fail records one failed operation.
func (f *fleet) fail(err error) {
	f.fails.Add(1)
	f.errMu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.errMu.Unlock()
}

// check turns recorded failures into the pass's error.
func (f *fleet) check() error {
	if n := f.fails.Load(); n > 0 {
		f.errMu.Lock()
		defer f.errMu.Unlock()
		return fmt.Errorf("%d failed operations, first: %w", n, f.err)
	}
	return nil
}

// latencies collects one round's per-op latencies per client; the owner
// merges and sorts them after the clock stops.
type latencies struct {
	read, write [maxCallers][]int64
	all         []int64 // sorted's result, reused between calls
}

func (l *latencies) reset() {
	for c := range l.read {
		l.read[c], l.write[c] = l.read[c][:0], l.write[c][:0]
	}
}

// sorted merges the per-client samples of the chosen kinds, ascending. The
// result is valid until the next call.
func (l *latencies) sorted(reads, writes bool) []int64 {
	all := l.all[:0]
	for c := range l.read {
		if reads {
			all = append(all, l.read[c]...)
		}
		if writes {
			all = append(all, l.write[c]...)
		}
	}
	slices.Sort(all)
	l.all = all
	return all
}

// parallel runs fn once per client and waits for all of them.
func parallel(fn func(c int)) { parallelN(clients, fn) }

// parallelN runs fn(0..n-1) on n goroutines and waits for all of them.
func parallelN(n int, fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	wg.Wait()
}

// ---------------------------------------------------------------------------
// stream: every client writes its regions in 4 KiB submits, then reads
// them back the same way
// ---------------------------------------------------------------------------

// streamRound runs one stream round: a write phase and a read-back phase,
// each with both clients in flight and a barrier between, then (clock
// stopped) a bytewise comparison of every read-back buffer with its oracle.
// Per region a client keeps every chunk's future in flight before waiting,
// so the shard queues always hold runs of adjacent tasks for the workers to
// coalesce and Submit blocks on the ring's backpressure.
//
// Round k re-deals the regions to the clients and reshuffles their order
// from (seed, k). Which regions the two clients happen to stream at the same
// time decides how often they meet on one shard, and a single deal is worth
// ±12 % of the round; a run's median over many deals is a property of the
// program, not of the seed. The work — entries, bytes, accesses — is the
// same in every round.
func (f *fleet) streamRound(k int, tr *tracer, lat *latencies) sample {
	f.d.assign(gen.NewRNG(f.seed, uint64(2+k)))
	for _, r := range f.d.regions {
		if r.rb == nil {
			r.rb = make([]byte, len(r.data))
		}
		r.reset()
	}
	lat.reset()
	var submitNS, waitNS, ops [clients]int64
	phase := func(read bool) int64 {
		t0 := now()
		parallel(func(c int) {
			tb := tr.client(c)
			var futs []*pool.Future
			var sub []int64
			t := now()
			root := tb.open(spClient, -1, c, t)
			for ri, r := range f.d.byClient[c] {
				h := r.h
				buf, name := r.data, spSubmitWrite
				if read {
					buf, name = r.rb, spSubmitRead
				}
				reg := tb.open(spRegion, root, ri, t)
				futs, sub = futs[:0], sub[:0]
				for off := 0; off < len(buf); off += chunkBytes {
					end := min(off+chunkBytes, len(buf))
					var fut *pool.Future
					if read {
						fut = f.p.SubmitRead(h, buf[off:end], int64(off))
					} else {
						fut = f.p.SubmitWrite(h, buf[off:end], int64(off))
					}
					t2 := now()
					tb.add(name, reg, len(futs), t, t2)
					submitNS[c] += t2 - t
					futs, sub = append(futs, fut), append(sub, t)
					t = t2
				}
				for k, fut := range futs {
					n, err := fut.Wait()
					t2 := now()
					tb.add(spWait, reg, k, t, t2)
					waitNS[c] += t2 - t
					if read {
						lat.read[c] = append(lat.read[c], t2-sub[k])
					} else {
						lat.write[c] = append(lat.write[c], t2-sub[k])
					}
					if want := min(chunkBytes, len(buf)-k*chunkBytes); err != nil || n != want {
						f.fail(fmt.Errorf("stream %s chunk %d: n=%d: %w", r.name, k, n, err))
					}
					t = t2
				}
				ops[c] += int64(len(futs))
				tb.done(reg, t)
			}
			tb.done(root, t)
		})
		return now() - t0
	}
	writeNS := phase(false)
	readNS := phase(true)
	for _, r := range f.d.regions {
		if !bytes.Equal(r.rb, r.data) {
			f.fail(fmt.Errorf("stream %s: read-back differs from what was written", r.name))
		}
	}
	s := sample{
		"ns": float64(writeNS + readNS), "write_ns": float64(writeNS), "read_ns": float64(readNS),
		"entries": float64(2 * f.d.entries),
	}
	for c := 0; c < clients; c++ {
		s["ops"] += float64(ops[c])
		s["submit_ns"] += float64(submitNS[c])
		s["wait_ns"] += float64(waitNS[c])
	}
	return s
}

// ---------------------------------------------------------------------------
// rpc: small synchronous operations at random offsets
// ---------------------------------------------------------------------------

// opStream names caller g's op stream in round k.
func opStream(k, g int) uint64 { return uint64(1000 + maxCallers*k + g) }

// nextOp draws the next rpc operation: a region of the client's, 1-4
// entries at a random entry-aligned offset, a write three times in ten.
func nextOp(rng *gen.RNG, regs []*region) (r *region, e, n int, write bool) {
	r = regs[rng.Intn(len(regs))]
	n = 1 + rng.Intn(4)
	e = rng.Intn(r.entries() - n + 1)
	return r, e, n, rng.Intn(10) < 3
}

// rpcRound runs one rpc round: every client runs rpcCallers synchronous
// callers (goroutine g is caller g/clients of client g%clients), and every
// caller issues opsPerCaller Submit*(...).Wait() operations of 1-4 entries
// at a random entry-aligned offset of one of its regions — its share of the
// client's — 70 % reads. A write flips its entries between the two images;
// a read is compared, entry by entry, with the image the caller's flip bits
// say is there. The op stream is a function of the seed, the caller and the
// round number. A client with fewer regions than callers (toy scale) leaves
// the spare callers idle.
func (f *fleet) rpcRound(k int, tr *tracer, lat *latencies, opsPerCaller int) sample {
	lat.reset()
	var entries, submitNS, waitNS, ops [maxCallers]int64
	t0 := now()
	parallelN(maxCallers, func(g int) {
		own := f.d.byClient[g%clients]
		h := g / clients
		regs := own[h*len(own)/rpcCallers : (h+1)*len(own)/rpcCallers]
		if len(regs) == 0 {
			return
		}
		ops[g] = int64(opsPerCaller)
		tb := tr.client(g)
		rng := gen.NewRNG(f.seed, opStream(k, g))
		var scratch [4 * core.EntryBytes]byte
		root := tb.open(spClient, -1, g, now())
		for i := 0; i < opsPerCaller; i++ {
			r, e, n, write := nextOp(rng, regs)
			buf := scratch[:n*core.EntryBytes]
			submit, name := f.p.SubmitRead, spSubmitRead
			if write {
				submit, name = f.p.SubmitWrite, spSubmitWrite
				for j := 0; j < n; j++ {
					r.toggle(e + j)
					copy(buf[j*core.EntryBytes:], r.current(e+j))
				}
			}
			t1 := now()
			fut := submit(r.h, buf, int64(e)*core.EntryBytes)
			t2 := now()
			got, err := fut.Wait()
			t3 := now()
			if tb != nil {
				op := tb.add(spOp, root, i, t1, t3)
				tb.add(name, op, i, t1, t2)
				tb.add(spWait, op, i, t2, t3)
			}
			submitNS[g] += t2 - t1
			waitNS[g] += t3 - t2
			entries[g] += int64(n)
			if err != nil || got != len(buf) {
				f.fail(fmt.Errorf("rpc %s entry %d+%d: n=%d: %w", r.name, e, n, got, err))
				continue
			}
			if write {
				lat.write[g] = append(lat.write[g], t3-t1)
				continue
			}
			lat.read[g] = append(lat.read[g], t3-t1)
			for j := 0; j < n; j++ {
				if !bytes.Equal(buf[j*core.EntryBytes:(j+1)*core.EntryBytes], r.current(e+j)) {
					f.fail(fmt.Errorf("rpc %s entry %d: read differs from the last write", r.name, e+j))
					break
				}
			}
		}
		tb.done(root, now())
	})
	s := sample{"ns": float64(now() - t0)}
	for g := range ops {
		s["ops"] += float64(ops[g])
		s["entries"] += float64(entries[g])
		s["submit_ns"] += float64(submitNS[g])
		s["wait_ns"] += float64(waitNS[g])
	}
	return s
}

// ---------------------------------------------------------------------------
// relocate: one client moves everything while the other keeps reading
// ---------------------------------------------------------------------------

// fgChunkBytes is the foreground verifier's read size. auditChunkBytes is
// the final single-client sweep's: 64 entries, below the span size the core
// fans out across its span workers, so the metadata cache sees the entries
// in order and the sweep's modeled counts repeat exactly.
const (
	fgChunkBytes    = 64 << 10
	auditChunkBytes = 8 << 10
)

// refused reports whether a read failed only because its shard's device
// tier is down right now — the one error the verifier retries.
func refused(err error) bool {
	return errors.Is(err, core.ErrDeviceFailed) || errors.Is(err, pool.ErrShardFailed)
}

// readChunk is one foreground read: submit, wait, retry while the shard is
// down, then compare with the oracle. It returns the time spent inside the
// pool (verification excluded) and the retry count.
func (f *fleet) readChunk(tb *spanBuf, parent int32, r *region, off int, buf []byte) (ns, retries int64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for {
		t0 := now()
		fut := f.p.SubmitRead(r.h, buf, int64(off))
		t1 := now()
		n, err := fut.Wait()
		t2 := now()
		if tb != nil {
			op := tb.add(spOp, parent, off/len(buf), t0, t2)
			tb.add(spSubmitRead, op, 0, t0, t1)
			tb.add(spWait, op, 0, t1, t2)
		}
		ns += t2 - t0
		if err != nil && refused(err) {
			retries++
			runtime.Gosched()
			continue
		}
		if err != nil || n != len(buf) {
			f.fail(fmt.Errorf("verify %s @%d: n=%d: %w", r.name, off, n, err))
			return ns, retries
		}
		break
	}
	if !r.verify(off, buf) {
		f.fail(fmt.Errorf("verify %s @%d: read differs from the oracle", r.name, off))
	}
	return ns, retries
}

// verify compares buf with what the region must hold at byte offset off.
func (r *region) verify(off int, buf []byte) bool {
	if !r.dirty {
		return bytes.Equal(buf, r.data[off:off+len(buf)])
	}
	for i := 0; i < len(buf); i += core.EntryBytes {
		if !bytes.Equal(buf[i:i+core.EntryBytes], r.current((off+i)/core.EntryBytes)) {
			return false
		}
	}
	return true
}

// sweep reads every region once in len(buf)-sized chunks, verifying each,
// and returns the time inside the pool, the entries read and the retries.
// stop, when non-nil, ends the sweep early.
func (f *fleet) sweep(tb *spanBuf, parent int32, regs []*region, buf []byte, stop *atomic.Bool, lat *[]int64) (ns, entries, retries int64) {
	for _, r := range regs {
		for off := 0; off < len(r.data); off += len(buf) {
			if stop != nil && stop.Load() {
				return
			}
			n := min(len(buf), len(r.data)-off)
			dns, dr := f.readChunk(tb, parent, r, off, buf[:n])
			ns += dns
			retries += dr
			entries += int64(n / core.EntryBytes)
			if lat != nil {
				*lat = append(*lat, dns)
			}
		}
	}
	return
}

// neighbour returns the next less aggressive target (the next more
// aggressive one for 1x): the ratio the mover retargets to and back from.
func neighbour(t core.TargetRatio) core.TargetRatio {
	i := slices.Index(core.AllRatios, t)
	if i <= 0 {
		return core.AllRatios[1]
	}
	return core.AllRatios[i-1]
}

// migrationBytes reads every shard's cumulative Traffic.MigrationBytes.
func (f *fleet) migrationBytes() []uint64 {
	out := make([]uint64, f.p.Shards())
	for i := range out {
		out[i] = f.p.Device(i).Traffic().MigrationBytes
	}
	return out
}

// migrate moves one region to dst and checks the transfer's accounting:
// what left the source equals what arrived at the destination, and no
// other shard saw migration traffic.
func (f *fleet) migrate(r *region, dst int) error {
	h := r.h
	src := h.Shard()
	before := f.migrationBytes()
	if err := f.p.MigrateHandle(h, dst); err != nil {
		return fmt.Errorf("migrate %s %d->%d: %w", r.name, src, dst, err)
	}
	after := f.migrationBytes()
	for i := range after {
		d := after[i] - before[i]
		if i != src && i != dst && d != 0 {
			return fmt.Errorf("migrate %s %d->%d: shard %d saw %d migration bytes", r.name, src, dst, i, d)
		}
	}
	if out, in := after[src]-before[src], after[dst]-before[dst]; src != dst && out != in {
		return fmt.Errorf("migrate %s %d->%d: %d bytes left the source, %d arrived", r.name, src, dst, out, in)
	}
	return nil
}

// relocateRound runs one relocation round. Client 0 is the mover: it
// live-migrates every region to the next shard, retargets every allocation
// to a neighbouring ratio and back, frees and re-creates the smallest
// quarter of the regions, kills and recovers each shard, drains and reopens
// shard 0, and finally migrates everything back to its home shard, so every
// round starts from — and does — the same thing. Client 1 is a foreground
// verifier sweeping 64 KiB reads over all regions until the mover is done.
// idle additionally times one sweep with the mover parked.
//
// The mover visits the regions in data-set order whatever the seed: the
// order of the moves decides which retired table slots get reused, and with
// it the heap a round leaves behind (178-190 B/entry across shuffles), and
// host_bytes_per_entry should read the program, not the shuffle. The
// verifier's order is reshuffled from (seed, k) every round.
func (f *fleet) relocateRound(k int, tr *tracer, lat *latencies, idle bool) (sample, error) {
	var order []*region
	for _, i := range gen.NewRNG(f.seed, uint64(2+k)).Perm(len(f.d.regions)) {
		order = append(order, f.d.regions[i])
	}
	lat.reset()
	s := sample{}
	var stop atomic.Bool
	var fgNS, fgEntries, fgRetries int64
	var moveErr error
	buf := make([]byte, fgChunkBytes)
	t0 := now()
	parallel(func(c int) {
		tb := tr.client(c)
		root := tb.open(spClient, -1, c, now())
		defer func() { tb.done(root, now()) }()
		if c == 1 {
			for !stop.Load() {
				ns, n, retries := f.sweep(tb, root, order, buf, &stop, &lat.read[1])
				fgNS, fgEntries, fgRetries = fgNS+ns, fgEntries+n, fgRetries+retries
			}
			return
		}
		defer stop.Store(true)
		moveErr = f.move(tb, root, s)
	})
	s["ns"] = float64(now() - t0)
	if moveErr != nil {
		return nil, moveErr
	}
	s["fg_moving_ns"], s["fg_moving_entries"], s["fg_retries"] = float64(fgNS), float64(fgEntries), float64(fgRetries)
	s["ops"] = float64(len(lat.read[1])) + s["moves"]
	if idle {
		ns, n, _ := f.sweep(nil, -1, order, buf, nil, nil)
		s["fg_idle_ns"], s["fg_idle_entries"] = float64(ns), float64(n)
	}
	return s, nil
}

// move is the mover's half of a relocate round; it adds each step's time
// and entry count to s.
func (f *fleet) move(tb *spanBuf, root int32, s sample) error {
	order := f.d.regions
	step := func(name int, key string, op int, entries int, fn func() error) error {
		t := now()
		err := fn()
		t2 := now()
		tb.add(name, root, op, t, t2)
		s[key+"_ns"] += float64(t2 - t)
		s[key+"_entries"] += float64(entries)
		s["entries"] += float64(entries)
		s["moves"]++
		return err
	}
	for i, r := range order {
		if err := step(spMigrate, "migrate", i, r.entries(), func() error {
			return f.migrate(r, (r.home+1)%f.p.Shards())
		}); err != nil {
			return err
		}
	}
	for i, r := range order {
		if err := step(spRetarget, "retarget", i, 2*r.entries(), func() error {
			dev, a := f.p.Device(r.h.Shard()), r.h.Alloc()
			old := a.Target()
			if _, err := dev.Retarget(a, neighbour(old)); err != nil {
				return fmt.Errorf("retarget %s: %w", r.name, err)
			}
			if _, err := dev.Retarget(a, old); err != nil {
				return fmt.Errorf("retarget %s back: %w", r.name, err)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for i, r := range f.d.smallestQuarter() {
		if err := step(spChurn, "churn", i, r.entries(), func() error {
			r.mu.Lock()
			defer r.mu.Unlock()
			if err := r.h.Close(); err != nil {
				return fmt.Errorf("churn %s: %w", r.name, err)
			}
			h, err := f.malloc(r)
			if err != nil {
				return fmt.Errorf("churn %s: %w", r.name, err)
			}
			r.h = h
			r.reset()
			if _, err := h.WriteAt(r.data, 0); err != nil {
				return fmt.Errorf("churn %s: %w", r.name, err)
			}
			return nil
		}); err != nil {
			return err
		}
		s["churn_allocs"]++
	}
	for shard := 0; shard < f.p.Shards(); shard++ {
		var rebuilt int
		if err := step(spKill, "kill", shard, 0, func() error { return f.inj.Kill(shard) }); err != nil {
			return err
		}
		err := step(spRecover, "recover", shard, 0, func() error {
			st, err := f.p.Recover(shard)
			rebuilt = st.Entries
			return err
		})
		if err != nil {
			return err
		}
		s["recover_entries"] += float64(rebuilt)
		s["entries"] += float64(rebuilt)
	}
	drained := 0
	for _, r := range order {
		if r.h.Shard() == 0 {
			drained += r.entries()
		}
	}
	if err := step(spDrain, "drain", 0, drained, func() error {
		before := f.migrationBytes()
		if err := f.p.Drain(0); err != nil {
			return err
		}
		after := f.migrationBytes()
		var in uint64
		for i := 1; i < f.p.Shards(); i++ {
			in += after[i] - before[i]
		}
		if out := after[0] - before[0]; out != in {
			return fmt.Errorf("drain: %d bytes left shard 0, %d arrived elsewhere", out, in)
		}
		return f.p.Reopen(0)
	}); err != nil {
		return err
	}
	for i, r := range order {
		n := r.entries()
		if r.h.Shard() == r.home {
			n = 0
		}
		if err := step(spMigrate, "migrate", i, n, func() error { return f.migrate(r, r.home) }); err != nil {
			return err
		}
	}
	return nil
}

// audit checks the accounting identities no pass may break: the pool's
// compression ratio still equals its post-load value, and every tenant's
// StoredBytes equals the device reservations of its live handles.
func (f *fleet) audit() error {
	if got := f.p.CompressionRatio(); got != f.loadedRatio {
		return fmt.Errorf("compression ratio %v after the run, %v after load", got, f.loadedRatio)
	}
	want := map[string]int64{}
	for _, r := range f.d.regions {
		tenant := r.tenant
		if tenant == "" {
			tenant = pool.DefaultTenant
		}
		want[tenant] += int64(r.entries()) * int64(r.h.Target().DeviceBytes())
	}
	for _, ts := range f.p.Stats().Tenants {
		if ts.StoredBytes != want[ts.Name] {
			return fmt.Errorf("tenant %s: StoredBytes %d, live handles reserve %d", ts.Name, ts.StoredBytes, want[ts.Name])
		}
	}
	return nil
}

// groupRatio returns raw bytes over reserved device bytes for the regions
// of one group.
func (f *fleet) groupRatio(group int) float64 {
	var raw, dev float64
	for _, r := range f.d.regions {
		if r.group == group {
			raw += float64(len(r.data))
			dev += float64(r.entries()) * float64(r.h.Target().DeviceBytes())
		}
	}
	return per(raw, dev)
}

// modeled summarizes the traffic between two Stats snapshots on the
// modeled axis: service cycles per shard are device bytes at the Tab. 2
// HBM2 rate plus the busier link direction's busy cycles; shards serve in
// parallel, so the fleet's time is the slowest shard's.
type modeled struct {
	buddyFrac   float64 // accesses that touched the buddy tier over all accesses
	gbPerS      float64 // payload over the slowest shard's service time at the Tab. 2 clock
	imbalance   float64 // max over mean shard service cycles
	linkBusyMax float64
}

func modeledBetween(a, b pool.Stats, payloadBytes float64) modeled {
	hbm := dram.DefaultConfig()
	bytesPerCycle := hbm.BandwidthGBs / hbm.CoreClockGHz
	var m modeled
	var maxC, sumC float64
	for i := range b.Shards {
		ta, tb := a.Shards[i].Traffic, b.Shards[i].Traffic
		dev := float64(tb.DeviceReadBytes + tb.DeviceWriteBytes - ta.DeviceReadBytes - ta.DeviceWriteBytes)
		link := max(b.Shards[i].LinkReadBusyCycles-a.Shards[i].LinkReadBusyCycles,
			b.Shards[i].LinkWriteBusyCycles-a.Shards[i].LinkWriteBusyCycles)
		c := dev/bytesPerCycle + link
		maxC, sumC = max(maxC, c), sumC+c
		m.linkBusyMax = max(m.linkBusyMax, link)
	}
	ta, tb := a.Traffic, b.Traffic
	m.buddyFrac = per(float64(tb.BuddyAccesses-ta.BuddyAccesses), float64(tb.Reads+tb.Writes-ta.Reads-ta.Writes))
	m.gbPerS = per(payloadBytes, maxC/(hbm.CoreClockGHz*1e9)) / 1e9
	m.imbalance = per(maxC, sumC/float64(len(b.Shards)))
	return m
}
