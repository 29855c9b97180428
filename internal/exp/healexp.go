package exp

import (
	"bytes"
	"errors"
	"fmt"
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

// Heal runs the failure-recovery experiment: the serve client population
// against serveShards shards, one of which is killed mid-round. scale is the
// workload footprint divisor.
func Heal(scale int) (*HealResult, error) {
	codec := &healCountingCodec{inner: compress.NewBPC()}
	clients, raw, err := buildServeClients(ServeClients, scale, codec)
	if err != nil {
		return nil, err
	}
	fi := pool.NewFailureInjector()
	recovered := make(chan pool.RecoveryStats, 1)
	p, err := newFleet(serveShards, 2*raw, codec, pool.Config{
		Injector:    fi,
		AutoRecover: true,
		OnRecover:   func(rs pool.RecoveryStats) { recovered <- rs },
	})
	if err != nil {
		return nil, err
	}
	defer p.Close()

	// Resident working set: allocated once, contents fixed for the whole
	// experiment (rounds rewrite the same bytes, so a kill at any point
	// leaves every region either acknowledged-new or untouched — both equal
	// to the recorded contents).
	pl, err := place(p, clients)
	if err != nil {
		return nil, fmt.Errorf("exp: heal resident set: %w", err)
	}
	for c, hs := range pl.handles {
		for i, h := range hs {
			if _, err := h.WriteAt(clients[c].data[i], 0); err != nil {
				return nil, fmt.Errorf("exp: heal resident set: %w", err)
			}
		}
	}
	res := &HealResult{Shards: serveShards, Clients: len(clients)}

	// Round A: baseline.
	var retried atomic.Int64
	p.ResetTraffic()
	payload, err := pl.round(0, &retried, nil)
	if err != nil {
		return nil, fmt.Errorf("exp: heal baseline round: %w", err)
	}
	res.BaselineGBs = healThroughput(p, payload)

	// Round B: kill the busiest shard as soon as the round is in flight.
	kill := 0
	var most int64
	for i := 0; i < serveShards; i++ {
		if u := p.Device(i).DeviceUsed(); u > most {
			most, kill = u, i
		}
	}
	res.KilledShard = kill
	p.ResetTraffic()
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		payload, err = pl.round(0, &retried, started)
	}()
	<-started
	if err := fi.Kill(kill); err != nil {
		return nil, fmt.Errorf("exp: heal kill: %w", err)
	}
	<-done
	if err != nil {
		return nil, fmt.Errorf("exp: heal failure round: %w", err)
	}
	res.FailureGBs = healThroughput(p, payload)
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
	payload, err = pl.round(0, &retried, nil)
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
	for c, hs := range pl.handles {
		for i, h := range hs {
			want := clients[c].data[i]
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
	var (
		pick *pool.Handle
		want []byte
	)
	for c, hs := range pl.handles {
		for i, h := range hs {
			if h.Shard() == kill && (pick == nil || h.Size() > pick.Size()) {
				pick, want = h, clients[c].data[i]
			}
		}
	}
	if pick != nil {
		dst := (kill + 1) % serveShards
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
		got := make([]byte, len(want))
		if _, err := pick.ReadAt(got, 0); err != nil {
			return nil, fmt.Errorf("exp: heal migration readback: %w", err)
		}
		if !bytes.Equal(got, want) {
			return nil, errors.New("exp: heal: migration corrupted resident data")
		}
	}
	return res, nil
}
