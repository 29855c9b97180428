package exp

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"buddy/internal/compress"
	"buddy/internal/core"
	"buddy/internal/pool"
)

// ---------------------------------------------------------------------------
// Heal: shard failure and recovery under live serving traffic
// ---------------------------------------------------------------------------
//
// The self-healing experiment asks what a shard failure costs a serving
// fleet and how completely it comes back. The serve experiment's client
// population keeps a resident working set on a pool of shards and streams
// write/read-back rounds through the asynchronous submission queues. Round
// A measures baseline modeled throughput. In round B a failure injector
// kills one shard's device tier mid-round; clients retry operations that
// fail with the device-failed error while the pool's supervisor rebuilds
// the shard from its buddy carve-out (the carve-out behaves as a
// write-through mirror, so no acknowledged byte is lost). Round C repeats
// the baseline after recovery; the figure of merit is C over A. A final
// quiesced leg live-migrates one resident allocation between shards and
// checks the tentpole invariants: codec-matched migration does zero decode
// round-trips and both ends account identical migration bytes.

// healCountingCodec wraps a codec with call counters — the instrument
// behind the zero-decode migration assertion.
type healCountingCodec struct {
	inner   compress.Codec
	encodes atomic.Int64
	decodes atomic.Int64
}

func (c *healCountingCodec) Name() string { return c.inner.Name() }

func (c *healCountingCodec) AppendCompressed(dst, entry []byte) ([]byte, int) {
	c.encodes.Add(1)
	return c.inner.AppendCompressed(dst, entry)
}

func (c *healCountingCodec) DecompressInto(dst, comp []byte) error {
	c.decodes.Add(1)
	return c.inner.DecompressInto(dst, comp)
}

// HealResult is the heal experiment's outcome.
type HealResult struct {
	// Shards is the fleet width; KilledShard is the one that died.
	Shards      int
	KilledShard int
	// Clients is the serving population.
	Clients int
	// BaselineGBs, FailureGBs and RecoveredGBs are the modeled serving
	// throughputs of the three rounds: before, during and after the
	// failure. FailureGBs includes the retries and the rebuild traffic, so
	// it is the dip.
	BaselineGBs  float64
	FailureGBs   float64
	RecoveredGBs float64
	// RecoveryRatio is RecoveredGBs over BaselineGBs — the acceptance
	// criterion (>= 0.9).
	RecoveryRatio float64
	// Retried counts client operations that failed with the device-failed
	// error and were retried during round B.
	Retried int64
	// RebuiltEntries and RebuiltBytes describe the supervisor's rebuild;
	// RecoveryWall is its wall-clock duration.
	RebuiltEntries int64
	RebuiltBytes   int64
	RecoveryWall   time.Duration
	// LostBytes counts resident bytes that differed from the acknowledged
	// contents after recovery. The carve-out mirror makes this zero.
	LostBytes int64
	// MigrateDecodes and MigrateEncodes count codec round-trips during the
	// quiesced codec-matched migration leg (both must be zero);
	// MigrationBytesSrc/Dst are the two ends' migration accounting (equal).
	MigrateDecodes    int64
	MigrateEncodes    int64
	MigrationBytesSrc uint64
	MigrationBytesDst uint64
}

// healThroughput models one round's serving throughput from the per-shard
// telemetry accumulated since the last traffic reset.
func healThroughput(p *pool.Pool, payload int64) float64 {
	var worst float64
	for _, s := range p.Stats().Shards {
		worst = max(worst, s.ServiceCycles)
	}
	return core.ThroughputGBs(payload, worst)
}

// healRound streams one write+read-back pass of every client's resident
// set through the submission queues. Operations that fail because the
// device tier is down are retried until the supervisor brings the shard
// back; retried counts them. Returns the payload bytes acknowledged.
func healRound(p *pool.Pool, handles [][]*pool.Handle, data [][][]byte, retried *atomic.Int64, started chan<- struct{}) (int64, error) {
	var (
		payload atomic.Int64
		once    sync.Once
	)
	err := fanOut(len(handles), func(c int) error {
		var moved int64
		do := func(h *pool.Handle, buf []byte, read bool) error {
			for {
				var f *pool.Future
				if read {
					f = p.SubmitRead(h, buf, 0)
				} else {
					f = p.SubmitWrite(h, buf, 0)
				}
				if started != nil {
					once.Do(func() { close(started) })
				}
				n, err := f.Wait()
				if err == nil {
					moved += int64(n)
					return nil
				}
				if !errors.Is(err, core.ErrDeviceFailed) {
					return err
				}
				// The shard died under us; the supervisor is rebuilding it.
				// Back off and resubmit.
				retried.Add(1)
				time.Sleep(200 * time.Microsecond)
			}
		}
		var scratch []byte
		for i, h := range handles[c] {
			// Rewrite the resident contents (write-back), then read them
			// back: the expected bytes never change, so a kill at any point
			// leaves every region either acknowledged-new or untouched — both
			// equal to the recorded contents.
			buf := data[c][i]
			if err := do(h, buf, false); err != nil {
				return err
			}
			if cap(scratch) < len(buf) {
				scratch = make([]byte, len(buf))
			}
			if err := do(h, scratch[:len(buf)], true); err != nil {
				return err
			}
		}
		payload.Add(moved)
		return nil
	})
	return payload.Load(), err
}

// Heal runs the failure-recovery experiment: the serve client population
// against shards shards (<= 1 selects the default 4), one of which is
// killed mid-round. scale is the workload footprint divisor.
func Heal(scale, shards int) (*HealResult, error) {
	if shards <= 1 {
		shards = 4
	}
	codec := &healCountingCodec{inner: compress.NewBPC()}
	clients, raw, err := buildServeClients(ServeClients, scale, codec)
	if err != nil {
		return nil, err
	}
	fi := pool.NewFailureInjector()
	recovered := make(chan pool.RecoveryStats, 1)
	p, err := newFleet(shards, 2*raw, codec, pool.Config{
		Injector:    fi,
		AutoRecover: true,
		OnRecover:   func(rs pool.RecoveryStats) { recovered <- rs },
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()

	// Resident working set: allocated once, contents fixed for the whole
	// experiment (rounds rewrite the same bytes).
	handles := make([][]*pool.Handle, len(clients))
	data := make([][][]byte, len(clients))
	for c, cl := range clients {
		for i, name := range cl.names {
			h, err := p.Malloc(name, int64(len(cl.data[i])), cl.targets[name])
			if err != nil {
				return nil, fmt.Errorf("exp: heal resident set: %w", err)
			}
			if _, err := h.WriteAt(cl.data[i], 0); err != nil {
				return nil, fmt.Errorf("exp: heal resident set: %w", err)
			}
			handles[c] = append(handles[c], h)
			data[c] = append(data[c], cl.data[i])
		}
	}
	res := &HealResult{Shards: shards, Clients: len(clients)}

	// Round A: baseline.
	var retried atomic.Int64
	p.ResetTraffic()
	payload, err := healRound(p, handles, data, &retried, nil)
	if err != nil {
		return nil, fmt.Errorf("exp: heal baseline round: %w", err)
	}
	res.BaselineGBs = healThroughput(p, payload)

	// Round B: kill the busiest shard as soon as the round is in flight.
	kill := 0
	var most int64
	for i := 0; i < shards; i++ {
		if u := p.Device(i).DeviceUsed(); u > most {
			most, kill = u, i
		}
	}
	res.KilledShard = kill
	p.ResetTraffic()
	started := make(chan struct{})
	type roundOut struct {
		payload int64
		err     error
	}
	outc := make(chan roundOut, 1)
	go func() {
		pl, err := healRound(p, handles, data, &retried, started)
		outc <- roundOut{pl, err}
	}()
	<-started
	if err := fi.Kill(kill); err != nil {
		return nil, fmt.Errorf("exp: heal kill: %w", err)
	}
	out := <-outc
	if out.err != nil {
		return nil, fmt.Errorf("exp: heal failure round: %w", out.err)
	}
	res.FailureGBs = healThroughput(p, out.payload)
	res.Retried = retried.Load()
	select {
	case rs := <-recovered:
		res.RebuiltEntries = int64(rs.Entries)
		res.RebuiltBytes = rs.RebuiltBytes
		res.RecoveryWall = rs.Elapsed
	case <-time.After(30 * time.Second):
		return nil, errors.New("exp: heal: supervisor never recovered the shard")
	}

	// Round C: post-recovery throughput; the acceptance ratio.
	p.ResetTraffic()
	payload, err = healRound(p, handles, data, &retried, nil)
	if err != nil {
		return nil, fmt.Errorf("exp: heal recovered round: %w", err)
	}
	res.RecoveredGBs = healThroughput(p, payload)
	if res.BaselineGBs > 0 {
		res.RecoveryRatio = res.RecoveredGBs / res.BaselineGBs
	}

	// Zero lost bytes: every resident region must hold exactly the bytes
	// the clients acknowledged.
	var scratch []byte
	for c := range handles {
		for i, h := range handles[c] {
			want := data[c][i]
			if cap(scratch) < len(want) {
				scratch = make([]byte, len(want))
			}
			got := scratch[:len(want)]
			if _, err := h.ReadAt(got, 0); err != nil {
				return nil, fmt.Errorf("exp: heal readback: %w", err)
			}
			for o := 0; o < len(want); o++ {
				if got[o] != want[o] {
					res.LostBytes++
				}
			}
		}
	}

	// Quiesced migration leg: move the largest resident allocation off the
	// recovered shard and pin the tentpole invariants — no codec
	// round-trips between codec-matched shards, symmetric migration bytes.
	var pick *pool.Handle
	for c := range handles {
		for _, h := range handles[c] {
			if h.Shard() == kill && (pick == nil || h.Size() > pick.Size()) {
				pick = h
			}
		}
	}
	if pick != nil {
		dst := (kill + 1) % shards
		p.ResetTraffic()
		enc, dec := codec.encodes.Load(), codec.decodes.Load()
		if err := p.MigrateHandle(pick, dst); err != nil {
			return nil, fmt.Errorf("exp: heal migration leg: %w", err)
		}
		res.MigrateEncodes = codec.encodes.Load() - enc
		res.MigrateDecodes = codec.decodes.Load() - dec
		res.MigrationBytesSrc = p.Device(kill).Traffic().MigrationBytes
		res.MigrationBytesDst = p.Device(dst).Traffic().MigrationBytes
		// The moved data must still match.
		want := bytesOf(handles, data, pick)
		if want != nil {
			got := make([]byte, len(want))
			if _, err := pick.ReadAt(got, 0); err != nil {
				return nil, fmt.Errorf("exp: heal migration readback: %w", err)
			}
			if !bytes.Equal(got, want) {
				return nil, errors.New("exp: heal: migration corrupted resident data")
			}
		}
	}
	return res, nil
}

// bytesOf returns the resident contents recorded for the given handle.
func bytesOf(handles [][]*pool.Handle, data [][][]byte, h *pool.Handle) []byte {
	for c := range handles {
		for i, hh := range handles[c] {
			if hh == h {
				return data[c][i]
			}
		}
	}
	return nil
}
