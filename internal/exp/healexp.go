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
// A measures baseline modeled throughput. Before round B the residents are
// rewritten with the complement of the clients' data and a failure injector
// kills the busiest shard's device tier, so round B serves against a dead
// shard: its operations there fail with the device-failed error and are
// retried, and once the round has retried the experiment rebuilds the shard
// from its buddy carve-out (the carve-out behaves as a write-through mirror,
// so no acknowledged byte is lost). Right after round B every region must
// hold the clients' data, which it does only if each retried write landed.
// Round C repeats the baseline after recovery; the figure of merit is C
// over A.

// HealResult is the heal experiment's outcome.
type HealResult struct {
	// Shards is the fleet width; KilledShard is the one that died.
	Shards      int
	KilledShard int
	// Clients is the serving population.
	Clients int
	// BaselineGBs, FailureGBs and RecoveredGBs are the modeled serving
	// throughputs of the three rounds: before, during and after the
	// failure, each the round's payload over its busiest shard's modeled
	// cycles. FailureGBs counts the served traffic plus the rebuild's own
	// traffic on the killed shard's ledgers. A refused operation costs no
	// modeled traffic and the time blocked on the dead shard is on no
	// ledger, so it does not see how long the clients waited, nor how many
	// operations retried: FailureWall does.
	BaselineGBs  float64
	FailureGBs   float64
	RecoveredGBs float64
	// FailureWall is round B's wall-clock time, from its first submit to
	// its last completion, the wait for the rebuild included.
	FailureWall time.Duration
	// RecoveryRatio is RecoveredGBs over BaselineGBs — the acceptance
	// criterion (>= 0.9).
	RecoveryRatio float64
	// Retried counts client operations that failed with the device-failed
	// error and were retried during round B.
	Retried int64
	// RebuiltEntries and RebuiltBytes describe the rebuild; RecoveryWall is
	// its wall-clock duration.
	RebuiltEntries int64
	RebuiltBytes   int64
	RecoveryWall   time.Duration
	// LostBytes counts resident bytes that differed from the clients' data
	// after round B. The carve-out mirror and the retries make this zero.
	LostBytes int64
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
// against serveShards shards, one of which is dead when round B starts and
// rebuilt once the round has retried against it. scale is the workload
// footprint divisor.
func Heal(scale int) (*HealResult, error) {
	codec := compress.NewBPC()
	clients, raw, err := buildServeClients(ServeClients, scale, codec)
	if err != nil {
		return nil, err
	}
	fi := pool.NewFailureInjector()
	p, err := newFleet(serveShards, 2*raw, codec, pool.Config{Injector: fi})
	if err != nil {
		return nil, err
	}
	defer p.Close()

	// Resident working set: allocated once and written with the clients'
	// data, which every round rewrites.
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
	payload, err := pl.round(0, &retried)
	if err != nil {
		return nil, fmt.Errorf("exp: heal baseline round: %w", err)
	}
	res.BaselineGBs = healThroughput(p, payload)

	// Round B. The residents first hold the complement of what the round
	// writes, so a region reads back the clients' data afterwards only if
	// the round's write to it landed; then the busiest shard dies.
	for c, hs := range pl.handles {
		for i, h := range hs {
			old := bytes.Clone(clients[c].data[i])
			for k := range old {
				old[k] = ^old[k]
			}
			if _, err := h.WriteAt(old, 0); err != nil {
				return nil, fmt.Errorf("exp: heal complement: %w", err)
			}
		}
	}
	kill := 0
	var most int64
	for i := 0; i < serveShards; i++ {
		if u := p.Device(i).DeviceUsed(); u > most {
			most, kill = u, i
		}
	}
	res.KilledShard = kill
	p.ResetTraffic()
	if err := fi.Kill(kill); err != nil {
		return nil, fmt.Errorf("exp: heal kill: %w", err)
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		var err error
		payload, err = pl.round(0, &retried)
		res.FailureWall = time.Since(start)
		done <- err
	}()
	// Serve through the failure until an operation has met the dead shard
	// and retried, then rebuild it; the round finishes on the rebuilt shard.
	for retried.Load() == 0 {
		select {
		case err := <-done:
			if retried.Load() == 0 {
				if err == nil {
					err = errors.New("no operation met the dead shard")
				}
				return nil, fmt.Errorf("exp: heal failure round ended without a retry: %w", err)
			}
			done <- err // it retried after all: hand the result on
		case <-time.After(100 * time.Microsecond):
		}
	}
	rs, err := p.Recover(kill)
	if err != nil {
		return nil, fmt.Errorf("exp: heal recover: %w", err)
	}
	if err := <-done; err != nil {
		return nil, fmt.Errorf("exp: heal failure round: %w", err)
	}
	res.FailureGBs = healThroughput(p, payload)
	res.Retried = retried.Load()
	res.RebuiltEntries = int64(rs.Entries)
	res.RebuiltBytes = rs.RebuiltBytes
	res.RecoveryWall = rs.Elapsed

	// Zero lost bytes: every resident region must hold exactly the bytes
	// the clients wrote in round B.
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
			for o := range want {
				if got[o] != want[o] {
					res.LostBytes++
				}
			}
		}
	}

	// Round C: post-recovery throughput; the acceptance ratio.
	p.ResetTraffic()
	payload, err = pl.round(0, &retried)
	if err != nil {
		return nil, fmt.Errorf("exp: heal recovered round: %w", err)
	}
	res.RecoveredGBs = healThroughput(p, payload)
	if res.BaselineGBs > 0 {
		res.RecoveryRatio = res.RecoveredGBs / res.BaselineGBs
	}
	return res, nil
}
